"""Layer-timed sweep benchmark for bostbc.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload bhv-4qam-sweep --seed 1 --seconds 40 --trace 0

The benchmark builds a seeded campaign for the chosen workload (the master
seed is ``--seed``) and drives it through the public ``bostbc.sim`` API in
one process and one thread, with BLAS pinned to one thread.  It is a
closed-loop batch job: the next call starts when the previous one returns.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  It
alternates one ``sim.run_sweep`` over the campaign with one pass of single
``sim.run_trial`` calls over the same seed triples, for as long as the next
step fits in ``--seconds``.  Every pass checks that baseline and memoized
decoding agree, and the first pass checks the sweep's CSV means against the
sums over the single trials.  Timings are scaled to a nominal host speed
with the probe in ``hostclock.py``; the manifest keeps the wall-clock ones.

``--trace 1`` measures the per-layer metrics, in wall-clock time.  It
alternates untraced and traced sweeps (see ``tracer.py``) and decodes every
instance of the first traced sweep again with the plain decoder and, where
the grid is small enough, the exhaustive ML oracle.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A manifest and the
recorded spans go to ``perfbench/out/``.  The exit code is 0 when every
check passed, 1 when a check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread, set before numpy loads BLAS

import argparse
import csv
import io
import itertools
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Campaign of each workload; ``master_seed`` comes from ``--seed``.  The
#: reasons for each choice are in ``layer_map.json``.  Golden and ci-a2 leave
#: out their low-SNR points: there single trials take up to seconds and the
#: top 1% of trials holds a third of the time, so campaign means that fit in
#: one run would differ widely from seed to seed.
WORKLOADS = {
    "bhv-4qam-sweep": {"code": "bhv", "m": 2,
                       "snr_grid_db": [0, 4, 8, 12, 16, 20],
                       "trials_per_point": 200},
    "golden-64qam": {"code": "golden", "m": 8, "snr_grid_db": [15, 20],
                     "trials_per_point": 3500},
    "ci-a2-16qam": {"code": "ci-a2", "m": 4, "snr_grid_db": [8, 12, 20],
                    "trials_per_point": 1000},
}

SETUP_REPS = 201


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import bostbc from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bostbc" / "__init__.py").is_file():
        _fail(f"no bostbc sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import bostbc
    if Path(bostbc.__file__).resolve().parent != src / "bostbc":
        _fail(f"bostbc was imported from {bostbc.__file__}, not {src}")


def git_commit(root: Path):
    """HEAD commit read from ``.git``, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quantiles(values):
    """(p50, p90, samples beyond p90) of a list of timings."""
    if len(values) < 2:
        return values[0], values[0], 0
    q = statistics.quantiles(values, n=10)
    return q[4], q[8], sum(v > q[8] for v in values)


class Bench:
    def __init__(self, args):
        self.args = args
        _import_package()
        import numpy as np
        from bostbc import codes, decoder, sim
        self.np, self.codes, self.decoder, self.sim = np, codes, decoder, sim
        data = dict(WORKLOADS[args.workload], master_seed=args.seed)
        if args.trials_per_point:
            data["trials_per_point"] = args.trials_per_point
        self.campaign = sim.SimulationCampaign.from_json(data)
        self.cons = decoder.PamConstellation(self.campaign.m)
        grid = self.campaign.snr_grid_db
        self.triples = [(si, ti) for si in range(len(grid))
                        for ti in range(self.campaign.trials_per_point)]
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.reference_csv = None

    # -- shared steps -----------------------------------------------------

    def time_setup(self):
        """Build the code and resolve its profile; return (start, end)."""
        t0 = time.perf_counter()
        self.code = self.codes.named_code(self.campaign.code)
        self.profile = self.sim.resolve_profile(self.code,
                                                n_r=self.campaign.n_r)
        return t0, time.perf_counter()

    def note_failure(self, trials: int, message: str) -> None:
        self.failed += trials
        self.notes.append(message)
        print(f"FAIL: {message}", file=sys.stderr)

    def timed_sweep(self):
        """One ``run_sweep`` over the campaign; its (start, end), or None if
        it raised.  Every sweep must print the same CSV as the first one."""
        n = len(self.triples)
        self.attempted += n
        t0 = time.perf_counter()
        try:
            result = self.sim.run_sweep(self.campaign)
        except Exception:  # a raising sweep fails all its trials
            self.note_failure(n, "run_sweep raised:\n" + traceback.format_exc())
            return None
        t1 = time.perf_counter()
        text = self.sim.sweep_to_csv(result)
        if self.reference_csv is None:
            self.reference_csv = text
        for got, want in zip(text.splitlines()[1:],
                             self.reference_csv.splitlines()[1:]):
            if got != want:
                self.note_failure(int(got.split(",")[1]),
                                  f"sweep CSV row changed: {got!r} != {want!r}")
        return t0, t1

    def run_steps(self, steps):
        """Run each step once, then keep cycling through them while the next
        step, taking as long as it did last time, ends within ``--seconds``.
        Each step receives its round number."""
        deadline = time.perf_counter() + self.args.seconds
        took = [0.0] * len(steps)
        for k in itertools.count():
            i, round_no = k % len(steps), k // len(steps)
            if round_no and time.perf_counter() + took[i] > deadline:
                return round_no
            t0 = time.perf_counter()
            steps[i](round_no)
            took[i] = time.perf_counter() - t0

    def check_csv_against_trials(self, text, sums):
        """CSV means must equal the sums over single ``run_trial`` calls."""
        n = self.campaign.trials_per_point
        rows = list(csv.DictReader(io.StringIO(text)))
        for si, row in enumerate(rows):
            eb, em, fb, fm = sums[si]
            expect = {"mean_em_baseline": eb / n, "mean_em_memoized": em / n,
                      "mean_flops_baseline": fb / n,
                      "mean_flops_memoized": fm / n}
            bad = {k: (row[k], v) for k, v in expect.items()
                   if float(row[k]) != v}
            if bad or int(row["trials"]) != n:
                self.note_failure(n, f"snr index {si}: CSV means differ from "
                                     f"run_trial sums: {bad}")

    # -- untraced run: end-to-end metrics ----------------------------------

    def run_untraced(self):
        from hostclock import HostClock
        clock = HostClock(self.np)
        for _ in range(5):
            clock.probe()
        # set-up runs once before the first trial, then SETUP_REPS times per
        # pass spread evenly over the single trials, so that its median
        # samples the host's slow and fast phases like the trials do
        setup = [self.time_setup()]
        stride = max(1, len(self.triples) // SETUP_REPS)
        grid = self.campaign.snr_grid_db
        sweeps = []
        latency = [[] for _ in self.triples]
        sums = [[0, 0, 0, 0] for _ in grid]

        def sweep(round_no):
            for _ in range(3):
                clock.probe()
            interval = self.timed_sweep()
            for _ in range(3):
                clock.probe()
            if interval is not None:
                sweeps.append(interval)

        def trial_pass(round_no):
            for i, (si, ti) in enumerate(self.triples):
                clock.tick()
                if i % stride == 0:
                    setup.append(self.time_setup())
                self.attempted += 1
                seed = self.np.random.SeedSequence(
                    [self.campaign.master_seed, si, ti])
                t0 = time.perf_counter()
                try:
                    trial = self.sim.run_trial(self.code, self.cons, grid[si],
                                               seed, self.profile,
                                               n_r=self.campaign.n_r)
                except Exception:
                    self.note_failure(1, f"run_trial {(si, ti)} raised:\n"
                                         + traceback.format_exc())
                    continue
                latency[i].append((t0, time.perf_counter()))
                base, memo = trial.stats_baseline, trial.stats_memoized
                if base.decoded != memo.decoded:
                    self.note_failure(1, f"trial {(si, ti)}: baseline decoded "
                                         f"{base.decoded} != memoized "
                                         f"{memo.decoded}")
                if round_no == 0:
                    s = sums[si]
                    s[0] += base.em_evaluations
                    s[1] += memo.em_evaluations
                    s[2] += base.flops
                    s[3] += memo.flops
            clock.probe()
            if round_no == 0 and self.reference_csv is not None:
                self.check_csv_against_trials(self.reference_csv, sums)

        rounds = self.run_steps([sweep, trial_pass])

        def timings(duration):
            """Sweep seconds, per-trial seconds (median over passes) and
            set-up seconds under one way of measuring a duration."""
            per_triple = [statistics.median(duration(*iv) for iv in v)
                          for v in latency if v]
            return ([duration(*iv) for iv in sweeps], per_triple,
                    [duration(*iv) for iv in setup])

        n = len(self.triples)
        sweep_s, per_triple, setup_s = timings(clock.nominal)
        raw_sweep_s, raw_per_triple, raw_setup_s = timings(lambda a, b: b - a)
        p50, p90, beyond = quantiles(per_triple) if per_triple else (0, 0, 0)
        raw_p50, raw_p90, _ = (quantiles(raw_per_triple) if raw_per_triple
                               else (0, 0, 0))
        eb, em, fb, fm = (sum(s[j] for s in sums) for j in range(4))
        metrics = {
            "trials_per_s": (n / statistics.median(sweep_s) if sweep_s
                             else 0.0, "1/s"),
            "trial_ms_p50": (1e3 * p50, "ms"),
            "trial_ms_p90": (1e3 * p90, "ms"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "emrr": (em / eb if eb else 0.0, "ratio"),
            "flop_cut_pct": (100.0 * (1.0 - fm / fb) if fb else 0.0, "%"),
        }
        counts = {
            "rounds": rounds,
            "sweeps": len(sweeps),
            "trials_per_sweep": n,
            "latency_samples": len(per_triple),
            "latency_passes": max((len(v) for v in latency), default=0),
            "latency_samples_beyond_p90": beyond,
            "setup_reps": len(setup),
        }
        if beyond < 10:
            print(f"note: only {beyond} latency samples lie beyond p90",
                  file=sys.stderr)
        raw = {
            "sweep_s": raw_sweep_s,
            "trials_per_s": (n / statistics.median(raw_sweep_s)
                             if raw_sweep_s else 0.0),
            "trial_ms_p50": 1e3 * raw_p50,
            "trial_ms_p90": 1e3 * raw_p90,
            "setup_s": statistics.median(raw_setup_s),
        }
        return metrics, counts, {"nominal_sweep_s": sweep_s,
                                 "wall_clock": raw,
                                 "host_probe": clock.summary()}

    # -- traced run: per-layer metrics -------------------------------------

    def run_traced(self):
        from layers import SweepTotals, layer_metrics
        from tracer import Tracer, write_spans
        tracer = Tracer()
        with tracer.installed():
            for _ in range(SETUP_REPS):
                self.time_setup()
        setup = tracer.take()

        # (R, y') of every instance of the first traced sweep, by trial key
        instances = {}

        def capture(args, kwargs, result, span):
            if span.attrs["variant"] == "baseline":
                instances[span.key] = (args[0], args[1])

        totals = SweepTotals()
        untraced, traced = [], []
        first_sweep, checks, oracle_levels = [], [], {}

        def untraced_sweep(round_no):
            interval = self.timed_sweep()
            if interval is not None:
                untraced.append(interval[1] - interval[0])

        def traced_sweep(round_no):
            nonlocal first_sweep, checks, oracle_levels
            if round_no == 0:
                tracer.observers["decoder.sphere_decode"] = capture
            with tracer.installed():
                interval = self.timed_sweep()
            tracer.observers.clear()
            spans = tracer.take()
            if interval is not None:
                traced.append(interval[1] - interval[0])
                totals.add(spans)
            if round_no == 0:
                first_sweep = spans
                oracle_levels = self.decode_again(tracer, instances)
                checks = tracer.take()

        rounds = self.run_steps([untraced_sweep, traced_sweep])

        metrics, table = layer_metrics(
            totals, setup=setup, first_sweep=first_sweep, checks=checks,
            trials_per_sweep=len(self.triples), m=self.cons.m)
        mismatched = mismatches(first_sweep + checks, oracle_levels,
                                self.cons.levels)
        for key in mismatched:
            self.note_failure(1, f"trial {key}: decoders disagree")
        metrics["decoder.mismatches"] = (len(mismatched), "count")
        metrics["decoder.oracle_checked"] = (len(oracle_levels), "count")
        u = statistics.median(untraced or [0])
        t = statistics.median(traced or [0])
        metrics["trace.overhead_pct"] = (100.0 * (t / u - 1.0) if u else 0.0, "%")

        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{self.stem()}.spans.jsonl.gz"
        kept = setup + first_sweep + checks
        write_spans(kept, spans_path)
        counts = {
            "rounds": rounds,
            "untraced_sweeps": len(untraced),
            "traced_sweeps": len(traced),
            "trials_per_sweep": len(self.triples),
            "traced_trials": len(traced) * len(self.triples),
            "checked_instances": len(instances),
            "setup_reps": SETUP_REPS,
            "spans_written": len(kept),
        }
        return metrics, counts, {"sweep_s": untraced,
                                 "traced_sweep_s": traced,
                                 "layers": table,
                                 "spans_file": str(spans_path.relative_to(ROOT))}

    def decode_again(self, tracer, instances):
        """Plain decoder, and the oracle where the grid fits ``MAX_GRID``,
        on each captured instance, outside any trial span.

        Returns the oracle's answers by trial key.  The oracle searches
        ``||y' - R x||`` like the tree decoders, which has the same minimizer
        as ``||y - H_eq x||`` because Q has orthonormal columns.
        """
        oracle = self.cons.m ** self.code.k_real <= self.decoder.MAX_GRID
        answers = {}
        with tracer.installed():
            for key, (r, y_prime) in instances.items():
                with tracer.keyed(key):
                    try:
                        self.decoder.sphere_decode(r, y_prime, self.cons, None)
                        if oracle:
                            answers[key] = tuple(float(v) for v in
                                                 self.decoder.exhaustive_ml(
                                                     r, y_prime, self.cons))
                    except Exception:
                        self.note_failure(1, f"re-decoding {key} raised:\n"
                                             + traceback.format_exc())
        return answers

    # -- output ------------------------------------------------------------

    def stem(self) -> str:
        a = self.args
        return f"{a.workload}-seed{a.seed}-trace{a.trace}"

    def manifest(self, metrics, counts, extra) -> dict:
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "campaign": self.campaign.to_json(),
            "python": platform.python_version(),
            "numpy": self.np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": 1,
            "git_commit": git_commit(ROOT),
            "counts": counts,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / max(self.attempted, 1),
            "failures": self.notes[:20],
            "peak_rss_mb": peak_rss_mb(),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            **extra,
        }


def mismatches(spans, oracle_levels, levels):
    """Keys of trials where baseline, memoized, plain or oracle disagree."""
    decoded = {}
    for span in spans:
        if span.name == "decoder.sphere_decode" and span.attrs:
            decoded.setdefault(span.key, {})[span.attrs["variant"]] = \
                tuple(span.attrs["decoded"])
    bad = []
    for key, got in sorted(decoded.items()):
        answers = set(got.values())
        if key in oracle_levels:
            answers.add(tuple(levels.index(v) for v in oracle_levels[key]))
        if len(answers) != 1:
            bad.append(key)
    return bad


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials-per-point", type=int, default=0,
                        help="override the campaign size (smoke tests only)")
    args = parser.parse_args(argv)

    bench = Bench(args)
    if args.trace:
        metrics, counts, extra = bench.run_traced()
    else:
        metrics, counts, extra = bench.run_untraced()

    manifest = bench.manifest(metrics, counts, extra)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{bench.stem()}.manifest.json", "w") as f:
        json.dump(manifest, f, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(manifest['campaign'])}")
    print(f"counts {json.dumps(counts)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {manifest['failed_frac']:.6g} "
          f"({bench.failed} of {bench.attempted} paired trials)")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": manifest["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
