"""The benchmark's workloads: CLI arguments, reference outputs and checks.

Each workload is one real ``pauliblock`` command run in-process through
``pauliblock.cli.main``.  Its inputs are fixed reference cases, because
every output is checked against a frozen value: the ``--seed`` of a run
is recorded but selects no input.
"""

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# N_b = 12 column of EXPANSION_TABLE in tests/test_acceptance.py
# (sinusoidal ramp, T = 10, 15, 25), compared within its REGRESSION_TOL.
EXPANSION_NB12 = (0.9517855176, 0.985832043, 0.9984691321)
REGRESSION_TOL = 1e-4

# Crossing temperatures of the acceptance-08 splitting case for
# N_b = 3..6, as the seed commit computes them.
SPLIT_CROSSINGS = (
    0.5227120975710554,
    0.941465267052665,
    1.2696765577615028,
    1.5729153575010622,
)
CROSSING_TOL = 1e-3

# Fidelity of `pauliblock transport` at its defaults, as the seed commit
# computes it.
TRANSPORT_DEFAULT = 0.03379311104138777

# Thermal fidelity of the seconds-long `smoke` scenario, as the seed commit
# computes it.
SMOKE_THERMAL = 0.2529492607605686


@dataclass(frozen=True)
class Workload:
    """One CLI command with the values its output must reproduce.

    ``parse`` turns the command's stdout into a list of (value, status)
    pairs, one per checked output; ``expected`` holds the matching
    (value, status) references and ``tol`` the allowed absolute error.
    ``layers`` names the traced layers the command must reach.
    """

    name: str
    argv: tuple
    parse: object
    expected: tuple
    tol: float
    layers: tuple

    def config_text(self):
        """Text of the config file the command reads, or None."""
        for arg in self.argv:
            if arg.endswith(".cfg"):
                return Path(arg).read_text(encoding="utf-8")
        return None

    def check(self, stdout):
        """Number of checked values that miss their reference."""
        try:
            got = self.parse(stdout)
        except (ValueError, KeyError, IndexError):
            return len(self.expected)
        misses = abs(len(self.expected) - len(got))
        for (value, status), (want, want_status) in zip(got, self.expected):
            if (
                status != want_status
                or value is None
                or not math.isfinite(value)
                or abs(value - want) > self.tol
            ):
                misses += 1
        return misses


def parse_sweep(stdout):
    """F column of a ``pauliblock sweep`` CSV."""
    rows = csv.DictReader(io.StringIO(stdout))
    return [(float(row["F"]), "ok") for row in rows]


def parse_compensation(stdout):
    """(tau_cross, status) rows of a ``sweep --compensation`` CSV."""
    lines = [line for line in stdout.splitlines() if not line.startswith("#")]
    rows = csv.DictReader(io.StringIO("\n".join(lines)))
    return [
        (float(row["tau_cross"]) if row["tau_cross"] else None, row["status"])
        for row in rows
    ]


def parse_scalar(stdout):
    """The single fidelity a scenario command prints."""
    return [(float(stdout.strip()), "ok")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="expansion_sweep",
            argv=("sweep", str(CONFIG_DIR / "expansion_sweep.cfg")),
            parse=parse_sweep,
            expected=tuple((v, "ok") for v in EXPANSION_NB12),
            tol=REGRESSION_TOL,
            layers=("spectral.solve", "propagate.propagate_basis"),
        ),
        Workload(
            name="thermal_split_comp",
            argv=("sweep", "--compensation",
                  str(CONFIG_DIR / "thermal_split_comp.cfg")),
            parse=parse_compensation,
            expected=tuple((v, "crossed") for v in SPLIT_CROSSINGS),
            tol=CROSSING_TOL,
            layers=("spectral.solve", "propagate.propagate_basis",
                    "thermal.enumerate_ensemble"),
        ),
        # Runnable by name, but not listed in BENCHMARK.json: one run takes
        # 81-99 s and 1.1 GB, and the 22 runs per workload that a benchmark
        # comparison makes do not fit its time budget next to the sweeps.
        Workload(
            name="transport_cli",
            argv=("transport",),
            parse=parse_scalar,
            expected=((TRANSPORT_DEFAULT, "ok"),),
            tol=REGRESSION_TOL,
            layers=("spectral.solve", "propagate.propagate_basis"),
        ),
        # A thermal splitting scenario on a 256-point grid that runs in about
        # a second; the benchmark's own tests run the harness on it.
        Workload(
            name="smoke",
            argv=("split", "--T", "0.5", "--tau", "0.3", "--n-buffer", "1",
                  "--n-points", "256", "--dt", "0.01"),
            parse=parse_scalar,
            expected=((SMOKE_THERMAL, "ok"),),
            tol=REGRESSION_TOL,
            layers=("spectral.solve", "propagate.propagate_basis",
                    "thermal.enumerate_ensemble"),
        ),
    )
}
