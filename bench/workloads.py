"""Workloads, the operations a user waits for, and their correctness checks.

Every end-to-end operation goes through a stable entry point of the package:
``run_experiment`` (simulate plus filter, no monitors, no files),
``attach_monitors``, ``export``/``import_record`` and ``monte_carlo``.  A
check that misses, and a ``FilterError``, ``SimulationError`` or
``LinearizationError`` inside a job, each count as one failed operation.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from partkf import (
    ExperimentConfig,
    FilterError,
    LinearizationError,
    SimulationError,
    analysis,
    get_benchmark,
    harness,
    run_dfie,
)
from partkf.analysis import rmse

import calib
import chain

JOB_ERRORS = (FilterError, SimulationError, LinearizationError)
JOBS = ("estimate", "monitors", "export", "montecarlo")
OPERATIONS = ("setup",) + JOBS
#: Horizon of the warm-up job inside ``setup``.
WARMUP_STEPS = 2

#: C1 tolerance: filter posteriors against the distributed batch oracle.
ORACLE_TOL = 1e-8
ORACLE_INSTANTS = 3
#: C5 shape: mean RMSE over k >= 30 below 0.25 RMSE(0); max/mean at the end
#: against 3 is reported, not checked (see ``Session.check_c5``).
C5_FROM, C5_DECAY, C5_SPREAD = 30, 0.25, 3.0


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration.

    ``checks`` names the correctness checks beyond the ones every workload
    gets (JSON round trip, Monte Carlo run 0).
    """

    name: str
    model: dict
    steps: int
    mc_runs: int
    mc_steps: int
    checks: tuple[str, ...]

    def config(self, seed: int, steps: int) -> ExperimentConfig:
        model = dict(self.model)
        if model["name"] == chain.NAME:
            model["params"] = {**model.get("params", {}), "seed": seed}
        return ExperimentConfig(model=model, steps=steps, seed=seed, monitors=False)


#: Why each workload was chosen is recorded in BENCHMARK.json and bench/README.md.
#: Every operation takes at most about a second on a 2-vCPU host, so that a run
#: holds ten or more samples of each (see :meth:`Session.measure`).
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="chain-64",
            model={"name": chain.NAME,
                   "params": {"n": 64, "d": 2, "m": 1, "coupling": 0.04}},
            steps=10, mc_runs=2, mc_steps=5, checks=("oracle",)),
        Workload(
            name="reactor-500",
            model={"name": "reactor-chain"},
            steps=500, mc_runs=4, mc_steps=50, checks=("health",)),
        Workload(
            name="mc-4state",
            model={"name": "linear-4state"},
            steps=50, mc_runs=20, mc_steps=50, checks=("oracle", "c5")),
    )
}


class Session:
    """One workload at one seed: runs the operations, keeps their latest
    outputs and counts attempted and failed operations."""

    def __init__(self, wl: Workload, seed: int, out_dir: Path, tracer=None,
                 warmup: bool = False):
        self.wl = wl
        self.seed = seed
        self.cfg = wl.config(seed, WARMUP_STEPS if warmup else wl.steps)
        self.mc_cfg = wl.config(seed, WARMUP_STEPS if warmup else wl.mc_steps)
        self.mc_runs = 1 if warmup else wl.mc_runs
        self.out_dir = out_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.record = None
        self.monitored = None
        self.loaded = None
        self.record_mb: float | None = None
        self.mc = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def attempt(self, name: str) -> bool:
        """Run one operation; ``False`` when it failed or cannot run."""
        self.attempted += 1
        needs = {"monitors": self.record, "export": self.monitored}
        if name in needs and needs[name] is None:
            self.failed += 1
            self.notes.append(f"{name}: no record to work on")
            return False
        try:
            getattr(self, "_" + name)()
        except JOB_ERRORS as exc:
            self.failed += 1
            self.notes.append(f"{name}: {type(exc).__name__}: {exc}")
            if name == "estimate":
                self.record = None
            return False
        return True

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what} {detail}".rstrip())

    # -- operations ------------------------------------------------------

    def _setup(self):
        """Build the fixture (with its Jacobian spot checks) and run one
        short warm-up job."""
        model = self.cfg.model
        with self.span("benchmarks.get_benchmark"):
            get_benchmark(model["name"], **model.get("params", {}))
        warm = Session(self.wl, self.seed, self.out_dir / "warmup", warmup=True)
        warm.pipeline(JOBS)
        self.attempted += warm.attempted
        self.failed += warm.failed
        self.notes += warm.notes

    def _estimate(self):
        with self.span("harness.run_experiment"):
            self.record = harness.run_experiment(self.cfg, write_outputs=False)

    def _monitors(self):
        with self.span("analysis.attach_monitors"):
            analysis.attach_monitors(self.record)
        self.monitored = self.record

    def _export(self):
        with self.span("records.to_json"):
            path = harness.export(self.monitored, "json", self.out_dir, "record")
        with self.span("records.csv"):
            harness.export(self.monitored, "csv", self.out_dir, "record")
        with self.span("records.from_json"):
            self.loaded = harness.import_record(path)
        self.record_mb = path.stat().st_size / 1e6

    def _montecarlo(self):
        with self.span("analysis.monte_carlo"):
            self.mc = analysis.monte_carlo(self.mc_cfg, runs=self.mc_runs)

    def pipeline(self, ops=OPERATIONS) -> bool:
        """Each of ``ops`` once, in order."""
        return all(self.attempt(op) for op in ops)

    def measure(self, seconds: float) -> list[tuple[str, float]]:
        """Run the operations in cycles for ``seconds``; returns every
        ``(operation, seconds)`` sample in the order taken.

        Each cycle runs every operation once, in order, with a
        :func:`calib.kernel` sample (named ``"calib"``) before and after
        each, so every operation sample lies between two calibration
        samples.  The loop stops when another cycle as long as the last one
        would overrun the window.
        """
        samples = [("calib", _timed(calib.kernel))]
        start = time.perf_counter()
        cycle = 0.0
        while not samples[1:] or time.perf_counter() - start + cycle <= seconds:
            t_cycle = time.perf_counter()
            for op in OPERATIONS:
                t0 = time.perf_counter()
                if not self.attempt(op):
                    return samples
                samples.append((op, time.perf_counter() - t0))
                samples.append(("calib", _timed(calib.kernel)))
            cycle = time.perf_counter() - t_cycle
        return samples

    # -- correctness -----------------------------------------------------

    def run_checks(self) -> None:
        if self.monitored is None or self.loaded is None or self.mc is None:
            self.check("outputs present", False, "an operation did not complete")
            return
        with self.span("records.digest"):
            original = self.monitored.content_digest()
        with self.span("records.digest"):
            reloaded = self.loaded.content_digest()
        self.check("JSON round trip keeps content_digest", original == reloaded)

        run0 = self.mc_cfg.replace(seed=int(self.mc.seeds[0]))
        try:
            alone = harness.run_experiment(run0, write_outputs=False)
            same = np.array_equal(self.mc.rmse[0], alone.rmse)
        except JOB_ERRORS as exc:
            same = False
            self.notes.append(f"standalone run: {exc}")
        self.check("Monte Carlo run 0 equals a standalone run at its seed", same)

        if "oracle" in self.wl.checks:
            self.check_oracle()
        if "health" in self.wl.checks:
            self.check_health()
        if "c5" in self.wl.checks:
            self.check_c5()

    def check_oracle(self) -> None:
        """Posteriors at instants 0..2 against ``fie.run_dfie`` (C1)."""
        rec = self.monitored
        bench = get_benchmark(self.cfg.model["name"], **self.cfg.model.get("params", {}))
        steps = ORACLE_INSTANTS - 1
        with self.span("fie.run_dfie"):
            dfie = run_dfie(bench.model, bench.design, rec.ys, steps,
                            history=rec.xhat_post)
        p = bench.model.partition
        worst = 0.0
        for k in range(steps + 1):
            for i in range(p.n):
                sl = p.state_slice(i)
                ref = rec.xhat_post[k][sl]
                diff = np.linalg.norm(dfie.terminals[k][sl] - ref)
                worst = max(worst, float(diff / max(1.0, np.linalg.norm(ref))))
        self.check("posteriors match the batch oracle on instants 0..2",
                   worst <= ORACLE_TOL, f"(max rel diff {worst:.2e})")

    def check_health(self) -> None:
        """No floor events, every covariance SPD, weak coupling at every
        instant (C6, C7)."""
        rec = self.monitored
        self.check("no eigenvalue-floor events", rec.floor_events == 0,
                   f"({rec.floor_events} events)")
        try:
            for per_k in rec.covs:
                for P in per_k:
                    np.linalg.cholesky(P)
            spd = True
        except np.linalg.LinAlgError:
            spd = False
        self.check("every posterior covariance is SPD", spd)
        m = rec.monitors
        holds = bool(all(m["coupling_ok"][1:]) and all(m["coupling_checkable"][1:]))
        self.check("weak-coupling condition holds at every instant", holds)

    def check_c5(self) -> None:
        """Monte Carlo RMSE decay shape (C5) with a finite envelope.

        C5 also asserts max/mean RMSE at the last instant <= 3.  That holds
        at C5's own base seed (2.75) but not at every seed: with C5's 500
        runs on the unchanged package, base seeds 3, 4, 6, 13 and 16 of 1..16
        give 3.45, 3.31, 3.06, 3.64 and 3.06.  It is a property of the ensemble, not of
        correct output, so the ratio is reported with the run instead.
        """
        bench = get_benchmark(self.cfg.model["name"])
        rmse0 = rmse(bench.design.x0_guess[None, :], bench.x0[None, :])[0]
        steady = float(np.mean(self.mc.mean[C5_FROM:]))
        final = self.mc.rmse[:, -1]
        self.check("Monte Carlo RMSE decays below 0.25 RMSE(0)",
                   steady < C5_DECAY * rmse0, f"({steady:.4f} vs {rmse0:.4f})")
        self.check("Monte Carlo RMSE envelope is finite",
                   bool(np.all(np.isfinite(self.mc.hi))))
        self.notes.append(f"Monte Carlo max/mean RMSE at k={self.mc_cfg.steps}: "
                          f"{np.max(final) / np.mean(final):.2f} (C5 bound "
                          f"{C5_SPREAD:g}, asserted at its own seed only)")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def calibrated(samples: list[tuple[str, float]]) -> dict[str, list[float]]:
    """Each operation sample over the mean of the two calibration samples
    around it, in units of the kernel's time."""
    ratios: dict[str, list[float]] = {}
    for i, (op, dt) in enumerate(samples):
        if op != "calib":
            ref = (samples[i - 1][1] + samples[i + 1][1]) / 2
            ratios.setdefault(op, []).append(dt / ref)
    return ratios


def end_to_end(session: Session, samples: list[tuple[str, float]],
               import_s: float) -> dict[str, float]:
    """End-to-end metrics from the samples of one run.

    A time is ``calib.NOMINAL_S`` times the median of the operation's
    calibrated samples: seconds on a host where the calibration kernel takes
    ``NOMINAL_S``.  ``setup_s`` adds the package import, timed once before
    the run and calibrated by the run's mean kernel time.
    """
    ratios = calibrated(samples)
    kernel_s = [dt for op, dt in samples if op == "calib"]
    out = {}
    if "setup" in ratios:
        out["setup_s"] = calib.NOMINAL_S * (
            median(ratios["setup"]) + import_s * len(kernel_s) / sum(kernel_s))
    for op, metric in (("estimate", "estimate_s"), ("monitors", "monitors_s"),
                       ("export", "export_s")):
        if op in ratios:
            out[metric] = calib.NOMINAL_S * median(ratios[op])
    if "montecarlo" in ratios:
        out["mc_runs_per_s"] = session.mc_runs / (calib.NOMINAL_S
                                                  * median(ratios["montecarlo"]))
    if session.record_mb is not None:
        out["record_mb"] = session.record_mb
    return out


def sample_summary(samples: list[tuple[str, float]]) -> dict[str, dict]:
    """Count, fastest, median and slowest sample of each operation, in
    seconds, and the median of its calibrated samples."""
    ratios = calibrated(samples)
    out = {}
    for op in ("calib",) + OPERATIONS:
        ts = [dt for o, dt in samples if o == op]
        if ts:
            out[op] = {"count": len(ts), "min": min(ts), "median": median(ts),
                       "max": max(ts)}
            if op in ratios:
                out[op]["calibrated"] = median(ratios[op])
    return out
