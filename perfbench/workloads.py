"""Benchmark workloads: one fixed CLI recipe configuration each.

Every input a recipe reads is generated here from the workload seed: the
config file and, for the two ``run`` workloads, the initial potential,
written as a field file and read back through ``[initial] kind = file``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # CLI sub-command
    dims: tuple             # grid of the recipe (identities also runs dims/2)
    config: str             # config text; {seed} is filled in per run
    initial: bool = False   # generate a random initial potential file
    reference: bool = False # check final extrema against a cfl/4 run

    @property
    def field_mb(self) -> float:
        """Size of one float64 field on the recipe grid, in MB."""
        n = 1
        for d in self.dims:
            n *= d
        return n * 8 / 2**20


# Amplitude and band of the seeded initial potential of the run workloads.
INITIAL_AMPLITUDE = 0.01
INITIAL_BAND = 1

# Absolute tolerance on the final extrema of u, lambda and eta against the
# quarter-CFL reference.  The RK4 error of step-32 at cfl = 1 against cfl/4
# is at most 2.5e-12 (in min eta) over seeds 0-4; the tolerance is four
# times that, so an integrator that keeps RK4's accuracy passes and one
# that loses it fails.
REFERENCE_TOL = 1e-11

WORKLOADS = {
    w.name: w
    for w in (
        # Flow stepping on 8 MB fields that overflow L2: the factor
        # Laplacian FFTs of the RK4 stages dominate.  Integrator and
        # transform changes show here.
        Workload(
            name="step-32",
            command="run",
            dims=(32, 32, 32, 32),
            initial=True,
            reference=True,
            config="""\
[grid]
dims = 32 32 32 32

[background]
kind = kahler_cos
g_eps = 0.2
h_eps = 0.2

[flow]
beta = 0.5
cfl = 1.0
snapshot_stride = 10
t_end = 0.001

[initial]
kind = file
path = initial.field

[forcing]
f_plus = log_cos
f_plus_eps = 0.1
f_minus = log_cos
f_minus_eps = 0.1
gauge = true
""",
        ),
        # All 11 monitors on every snapshot of 0.5 MB fields that fit in
        # L2.  dt_max, not the CFL limit, fixes the step count, so a
        # larger-step integrator is predicted to change nothing here.
        Workload(
            name="monitors-dense-16",
            command="run",
            dims=(16, 16, 16, 16),
            initial=True,
            config="""\
[grid]
dims = 16 16 16 16

[background]
kind = flat

[flow]
beta = 0.5
dt_max = 5e-5
snapshot_stride = 1
t_end = 0.002

[initial]
kind = file
path = initial.field

[monitors]
enabled = all

[output]
field_dump_stride = 10
""",
        ),
        # No time stepping: cached complex fftn derivatives of the identity
        # slices at 32^4 and 16^4, and the bound constants.
        Workload(
            name="identities-32",
            command="check-identities",
            dims=(32, 32, 32, 32),
            config="""\
[grid]
dims = 32 32 32 32

[background]
kind = pluriclosed_cos

[identities]
betas = 0.7
seed = {seed}
amplitude = 0.01
band = 1
""",
        ),
    )
}


def reference_config(text: str) -> str:
    """Config of the quarter-CFL reference run: same problem, a quarter of
    the step limit, no monitors."""
    lines = []
    for line in text.splitlines():
        if line.startswith("cfl ="):
            cfl = float(line.split("=")[1])
            line = f"cfl = {cfl / 4!r}"
        lines.append(line)
    return "\n".join(lines) + "\n[monitors]\nenabled = none\n"


def write_inputs(workload: Workload, seed: int, directory: Path,
                 reference: bool = False) -> Path:
    """Write the recipe's config (and initial field) into directory;
    returns the config path.  Imports splitma, so it runs in the worker."""
    directory.mkdir(parents=True, exist_ok=True)
    text = workload.config.format(seed=seed)
    if reference:
        text = reference_config(text)
    if workload.initial:
        from splitma import make_grid, random_test_field, write_field

        grid = make_grid(workload.dims, (1.0,) * 4)
        u0 = random_test_field(grid, seed, INITIAL_AMPLITUDE, INITIAL_BAND)
        write_field(u0, directory / "initial.field")
    path = directory / "config.ini"
    path.write_text(text)
    return path
