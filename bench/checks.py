"""Output checks: every operation's result against an explicit dense loop.

The oracle builds the model's gain with `build_gain` and applies
u <- u + L e with e = y* - P u against the model or world matrix, one
iteration at a time. Each check returns a list of problems; an empty list
means the operation's output is correct.
"""

import hashlib
import math
import re
from pathlib import Path

import numpy as np

RMS_RTOL = 1e-8  # same tolerance as acceptance check 1
RESIDUAL_RTOL = 1e-8

_FINAL = re.compile(r"^final (\w+) RMS (\S+)", re.M)
_CANDIDATE = re.compile(
    r"candidate (\d+): model RMS (\S+) -> (\S+), world RMS (\S+) -> (\S+)"
)
_ZEROS = re.compile(r"^(model|world) plant sampled zeros \((\d+) outside", re.M)
_MODULUS = re.compile(r"modulus (\S+)")
_DELETED = re.compile(r"^configured deleted rows: (\d+)", re.M)


def _rms(e):
    return math.sqrt(float(np.dot(e, e)) / e.size)


class Problem(list):
    """Problems found in one operation's output."""

    def need(self, condition, message):
        if not condition:
            self.append(message)


class Plant:
    """Dense matrices of one config's lifted pair, with the model's gain."""

    def __init__(self, api, config):
        world, model = api.build_lifted_pair(config)
        law = api.LearningLaw(config.law_kind, config.gain)
        self.p_model = model.p_matrix
        self.p_world = world.p_matrix
        self.gain = api.build_gain(law, model).l_matrix
        self.u0 = api.build_initial_input(config).values
        self.desired = api.build_desired_trajectory(config).values
        self.config = config

    def history(self, schedule):
        """(iteration, phase, rms, hardware consumed) per record.

        schedule is a list of (phase, record count); each record measures
        the current input on that phase's plant, then applies one update.
        """
        rows = []
        u = self.u0.copy()
        consumed = 0
        for phase, count in schedule:
            p = self.p_model if phase == "model" else self.p_world
            for _ in range(count):
                e = self.desired - p @ u
                consumed += phase == "world"
                rows.append((len(rows), phase, _rms(e), consumed))
                u = u + self.gain @ e
        return rows

    def advisor(self, candidates):
        """The four RMS values per candidate n, as the advisor defines them."""
        wanted = set(candidates)
        out = {}
        u = self.u0.copy()
        for n in range(max(candidates) + 1):
            e_model = self.desired - self.p_model @ u
            if n in wanted:
                e_world = self.desired - self.p_world @ u
                u_model = u + self.gain @ e_model
                u_world = u + self.gain @ e_world
                out[n] = (
                    _rms(e_model),
                    _rms(self.desired - self.p_model @ u_model),
                    _rms(e_world),
                    _rms(self.desired - self.p_world @ u_world),
                )
            u = u + self.gain @ e_model
        return out


def hybrid_schedule(model_count, world_count):
    return [("model", model_count), ("world", world_count + 1)]


def check_csv(text, expected, problems, label):
    """CSV rows against oracle rows; the rms column within RMS_RTOL."""
    lines = text.splitlines()
    problems.need(lines and lines[0].startswith("iteration,phase,rms,rms_db"),
                  f"{label}: unexpected CSV header")
    rows = lines[1:]
    problems.need(len(rows) == len(expected),
                  f"{label}: {len(rows)} rows, expected {len(expected)}")
    for line, (iteration, phase, rms, consumed) in zip(rows, expected):
        fields = line.split(",")
        if len(fields) != 5:
            problems.append(f"{label}: malformed row {line!r}")
            continue
        try:
            got = float(fields[2])
            got_db = float(fields[3]) if fields[3] else None
            got_iteration, got_consumed = int(fields[0]), int(fields[4])
        except ValueError:
            problems.append(f"{label}: unparsable row {line!r}")
            continue
        problems.need(math.isfinite(got), f"{label}: non-finite rms in {line!r}")
        problems.need(
            abs(got - rms) <= RMS_RTOL * max(abs(rms), 1e-300),
            f"{label}: row {iteration} rms {got!r} differs from oracle {rms!r}",
        )
        problems.need(
            (got_iteration, fields[1], got_consumed) == (iteration, phase, consumed),
            f"{label}: row {line!r} expected iteration {iteration}, phase "
            f"{phase}, consumed {consumed}",
        )
        problems.need(
            (got_db is None) == (got == 0.0)
            and (got_db is None or abs(got_db - 20.0 * math.log10(got)) <= 1e-9),
            f"{label}: row {iteration} rms_db {fields[3]!r} inconsistent",
        )


def _printed_match(printed, value):
    """True when `value` rounds to `printed`, a %.4e-formatted number."""
    got = float(printed)
    if not math.isfinite(got):
        return False
    exponent = math.floor(math.log10(abs(got))) if got else 0
    return abs(got - value) <= 0.51 * 10.0 ** (exponent - 4)


def check_advisor(stdout, candidates, expected, problems):
    """Printed advisor RMS values; expected maps n to Plant.advisor's 4-tuple."""
    found = _CANDIDATE.findall(stdout)
    problems.need(
        [int(f[0]) for f in found] == list(candidates),
        f"advisor reported candidates {[f[0] for f in found]}, "
        f"expected {list(candidates)}",
    )
    for fields in found:
        n = int(fields[0])
        if n not in expected:
            continue
        for printed, value in zip(fields[1:], expected[n]):
            problems.need(
                _printed_match(printed, value),
                f"advisor candidate {n}: printed {printed}, oracle {value:.6e}",
            )


def check_finals(stdout, problems):
    finals = _FINAL.findall(stdout)
    problems.need(finals, "no final RMS printed")
    for phase, value in finals:
        problems.need(math.isfinite(float(value)),
                      f"final {phase} RMS {value} is not finite")


def csv_digest(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def check_inverse(p_deleted, desired, u):
    problems = Problem()
    problems.need(np.all(np.isfinite(u)), "stable inverse is not finite")
    if not problems:
        residual = np.linalg.norm(p_deleted @ u - desired) / np.linalg.norm(desired)
        problems.need(residual <= RESIDUAL_RTOL,
                      f"stable inverse residual {residual:.3e} > {RESIDUAL_RTOL}")
    return problems


def check_zeros(stdout, deleted_rows):
    problems = Problem()
    counts = dict(_ZEROS.findall(stdout))
    problems.need(set(counts) == {"model", "world"}, "zeros not listed per plant")
    problems.need(
        int(counts.get("model", -1)) == deleted_rows,
        f"model zeros outside the unit circle {counts.get('model')}, "
        f"configured deletion {deleted_rows}",
    )
    problems.need(
        [int(d) for d in _DELETED.findall(stdout)] == [deleted_rows],
        "deleted-row report missing or wrong",
    )
    moduli = _MODULUS.findall(stdout)
    problems.need(moduli and all(math.isfinite(float(m)) for m in moduli),
                  "sampled zero moduli missing or not finite")
    return problems
