"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed in ``__init__``
(the set-up that ``setup_s`` times), runs one closed-loop pass of pcsft
calls in ``run`` (the part that ``wall_s`` times), and checks a pass's
outputs in ``check``. pcsft receives only the generated configs and
inputs; the seed itself stays here. The seed draws the data, never the
amount of work: a pass does the same work for every seed, so that runs
with different seeds can be compared.

``check`` returns one ``Op`` per operation of the pass. The caller
compares each op's digest with the same op of the run's first pass:
the same seed must give byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# z-score gate for Monte Carlo estimates checked against a closed form
Z_GATE = 4.0


@dataclass
class Op:
    label: str
    digest: str
    failure: Optional[str] = None


def sub_seed(seed: int, salt: int) -> int:
    """Seed handed to pcsft, derived from the benchmark seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(salt,)).generate_state(1, np.uint32)[0])


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class FieldMC:
    """field-correspondence at its registered defaults through
    run_experiment, except the sample count: one 8192-row chunk per half
    instead of 100000 rows."""

    name = "field-mc"
    unit = "MC rows reduced"
    experiment = "field-correspondence"
    count = 8192

    def __init__(self, seed: int, work_dir: Path):
        from pcsft import experiments, fieldlab

        self._experiments = experiments
        self.out_dir = work_dir / "out"
        self.config = experiments.validate_config(
            {"experiment": self.experiment, "seed": sub_seed(seed, 0), "count": self.count}
        )
        p = self.config["params"]
        grid = fieldlab.FieldGrid.centered(p["n_points"], p["length"])
        kernel = fieldlab.hamiltonian_kernel(grid, 1.0, lambda x: x**2 / 2)
        w, _ = kernel.eigensystem
        alpha = p["alpha"]
        # the half-trace values the pure and mixed estimates are checked against
        self.references = [0.5 * alpha * float(w[0]), 0.5 * alpha * float(np.trace(kernel.matrix)) / p["n_points"]]
        self.work = 2 * self.count

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        return self._experiments.run_experiment(dict(self.config, out_dir=str(self.out_dir)))

    def check(self, record):
        failed = [m.name for m in record.metrics if not m.passed]
        failure = f"FAIL rows: {', '.join(failed)}" if failed else None
        return [Op(self.experiment, digest_dir(self.out_dir), failure)]

    def estimates(self, record):
        stderrs = [m.stderr for m in record.metrics if m.stderr is not None]
        return list(zip(self.references, stderrs))

    def io_bytes(self) -> int:
        return dir_bytes(self.out_dir)


class FlowBatch:
    """Implicit-midpoint integration of a 10^4-row batch plus a long
    two-row run, through ``dynamics.integrate``.

    H(psi) = (A psi, psi)/2 + 0.1 (A psi, psi)^2 at n = 8 with a fixed,
    well-conditioned J-commuting A; the seed draws the batch's initial
    points from an isotropic state and the pair's direction. A and the
    pair's norm are fixed because the fixed-point sweeps per step depend
    on them: with oddness-audit's seed-drawn operator the gradient work
    of one pass varies by up to 38% between seeds, which no bound on
    wall_s could absorb. The pair's 1500 steps on two rows carry the
    fixed per-step cost, about a quarter of a pass. The checks are exact
    properties of the midpoint rule for this class: the squared norm is
    conserved, and the flow of an even Hamiltonian is odd.
    """

    name = "flow-batch"
    unit = "row-steps integrated"
    n = 8
    rows = 10000
    batch_t, pair_t, dt = 0.3, 15.0, 0.01
    pair_norm = 0.6

    def __init__(self, seed: int, work_dir: Path):
        from pcsft import dynamics, gaussian, symplectic, variables

        self._dynamics = dynamics
        n = self.n
        d = np.diag(np.linspace(0.5, 1.5, n)) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
        s = 0.25 * (np.eye(n, k=1) - np.eye(n, k=-1))
        # integrate takes the variable itself as the Hamiltonian; its
        # values/gradients are looked up per call, so tracing sees them
        self.h = variables.ClassicalVariable.polynomial(symplectic.BlockOperator.from_pair(d, s), [0.5, 0.1])
        rho = gaussian.GaussianState.isotropic(n, 0.5)
        self.batch = gaussian.sample(rho, sub_seed(seed, 0), self.rows)
        psi = gaussian.sample(rho, sub_seed(seed, 1), 1)[0]
        psi *= self.pair_norm / np.linalg.norm(psi)
        self.pair = np.stack([psi, -psi])
        self.work = self.rows * round(self.batch_t / self.dt) + 2 * round(self.pair_t / self.dt)

    def prepare(self):
        pass

    def run(self):
        integrate = self._dynamics.integrate
        return integrate(self.h, self.batch, self.batch_t, self.dt), integrate(self.h, self.pair, self.pair_t, self.dt)

    def check(self, trajectories):
        ops = []
        for label, traj in zip(("batch", "pair"), trajectories):
            drift = float(np.max(np.abs(traj.norms - traj.norms[0]) / traj.norms[0]))
            failure = None if drift <= 1e-9 else f"relative norm drift {drift:.3e} > 1e-9"
            if label == "pair":
                oddness = float(np.max(np.abs(traj.states[-1][0] + traj.states[-1][1])))
                if oddness > 1e-10:
                    failure = f"odd-flow defect {oddness:.3e} > 1e-10"
            digest = hashlib.sha256(traj.states[-1].tobytes() + traj.energies.tobytes()).hexdigest()
            ops.append(Op(f"integrate {label}", digest, failure))
        return ops

    def estimates(self, trajectories):
        return []

    def io_bytes(self) -> int:
        return 0


class MCPoly:
    """classical_average of (A psi, psi)/2 + (A psi, psi)^2/2 at n = 64 over a
    full-rank J-invariant mixed state, checked against its closed form."""

    name = "mc-poly"
    unit = "MC rows reduced"
    n = 64
    count = 32768

    def __init__(self, seed: int, work_dir: Path):
        from pcsft import bridge, gaussian, symplectic, variables

        self._bridge = bridge
        rng = np.random.default_rng(sub_seed(seed, 0))
        n = self.n
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = x @ x.conj().T
        m /= float(np.trace(m).real)
        self.rho = gaussian.from_complex_covariance(symplectic.ComplexOperator(m))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = symplectic.complex_to_real(symplectic.ComplexOperator(y @ y.conj().T)).matrix
        b = self.rho.covariance
        a = a / float(np.trace(a @ b))  # scaled so that tr(AB) = 1
        self.variable = variables.ClassicalVariable.polynomial(symplectic.BlockOperator(a), [0.5, 0.5])
        ab = a @ b
        tr_ab = float(np.trace(ab))
        self.exact = 0.5 * tr_ab + 0.5 * (tr_ab**2 + 2.0 * float(np.trace(ab @ ab)))
        self.mc_seed = sub_seed(seed, 1)
        self.work = self.count

    def prepare(self):
        pass

    def run(self):
        return self._bridge.classical_average(self.variable, self.rho, self.mc_seed, self.count)

    def check(self, est):
        z = abs(est.mean - self.exact) / est.stderr
        failure = None if z <= Z_GATE else f"closed-form z = {z:.2f} > {Z_GATE}"
        digest = hashlib.sha256(repr((est.mean, est.stderr, est.count)).encode()).hexdigest()
        return [Op("classical_average", digest, failure)]

    def estimates(self, est):
        return [(est.mean, est.stderr)]

    def io_bytes(self) -> int:
        return 0


EXCLUDED = ("field-correspondence", "norm-audit", "oddness-audit")


class RegistrySweep:
    """The registered experiments at their defaults, each through
    ``pcsft.cli.main(["run", cfg, "--out", dir])``.

    Left out: field-correspondence, which is field-mc's; norm-audit,
    whose default config raises IntegrationError at step 0 of its
    polynomial flow for about 13% of seeds, so no seed-driven workload
    can include it without failing; and oddness-audit, whose fixed-point
    work varies by a factor of two between seeds (see FlowBatch). These
    two are the registry's only midpoint integrations, so this sweep
    makes no ``dynamics.integrate`` call; FlowBatch's two-row pair
    carries that per-step cost instead.
    """

    name = "registry-sweep"
    unit = "experiments completed"

    def __init__(self, seed: int, work_dir: Path):
        from pcsft import cli, experiments

        self._cli = cli
        self.out_dir = work_dir / "out"
        config_dir = work_dir / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        names = [n for n in experiments.REGISTRY if n not in EXCLUDED]
        self.configs = []
        for i, name in enumerate(names):
            path = config_dir / f"{name}.json"
            path.write_text(json.dumps({"experiment": name, "seed": sub_seed(seed, i)}))
            self.configs.append((name, path))
        self.work = len(self.configs)

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for name, path in self.configs:
                try:
                    codes.append(self._cli.main(["run", str(path), "--out", str(self.out_dir / name)]))
                except Exception as exc:  # one experiment's crash must not hide the others
                    codes.append(f"{type(exc).__name__}: {exc}")
        return codes

    def check(self, codes):
        ops = []
        for (name, _), code in zip(self.configs, codes):
            out = self.out_dir / name
            failure = None if code == 0 else f"cli.main returned {code}"
            ops.append(Op(name, digest_dir(out) if out.is_dir() else "", failure))
        return ops

    def estimates(self, codes):
        return []

    def io_bytes(self) -> int:
        return dir_bytes(self.out_dir)


WORKLOADS = {w.name: w for w in (FieldMC, MCPoly, FlowBatch, RegistrySweep)}
