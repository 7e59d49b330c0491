"""pmuplace benchmark: `pipeline.run` and `cli.main` timed end to end,
and every layer timed from outside in a separate traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 10 --trace 0

One process, one caller, one thread, BLAS pinned to one thread: a
closed loop that starts the next pass when the previous one ends, for
`--seconds`: at least one pass, and another only while the mean pass
so far still fits. A pass is one round over the workload's operations; an
operation is one `run()` or `main()` call. After the timed passes the
outputs are checked, untimed, against independent references
(`checks.py`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. The line
before it (`perfbench-detail ...`) holds the pass times with their
quartiles, the set-up samples, the environment, the SHA-256 of every
generated case file and any problem found; the same record, with the
traced spans, is written under `.perfbench_out/`.
"""

import os

# Before numpy loads, here and in the set-up children (which inherit it).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"   # per-run scratch, removed at exit
OUT = ROOT / ".perfbench_out"     # result records and spans

BUNDLED = ("ieee9", "ieee14", "ieee30", "ieee39", "ieee57", "ieee118")
WORKLOADS = ("bundled", "count-export", "enumerate-118")
TIED_COPIES = {"count-export": 2}
ENUMERATE_CAP = 10
SETUP_REPEATS = 30


def import_program():
    """Import pmuplace from this checkout's `src/`, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import pmuplace
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pmuplace from {SRC}: "
                         f"{exc}") from exc
    if not Path(pmuplace.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: pmuplace loaded from "
                         f"{pmuplace.__file__}, not from {SRC}")
    import pmuplace.cli  # noqa: F401  (the export workload calls it)
    return pmuplace


def prepare(pp, workload: str, seed: int,
            workdir: Path) -> tuple[list[Path], dict[str, str]]:
    """Load or generate the workload's case files: the work that
    `setup_s` times. Returns the case paths and the SHA-256 of every
    generated file."""
    if workload in TIED_COPIES:
        import tied
        copies = TIED_COPIES[workload]
        path = workdir / f"ieee118x{copies}"
        digests = tied.write_case(tied.tied_case(copies, seed), path)
        return [path], {f"{path.name}/{f}": d for f, d in digests.items()}
    names = BUNDLED if workload == "bundled" else ("ieee118",)
    paths = [SRC / "pmuplace" / "data" / f"{name}.txt" for name in names]
    for path in paths:
        pp.load_case(path)
    return paths, {}


class Bench:
    """One workload's inputs, its operations and every pass's outcomes."""

    def __init__(self, pp, workload: str, seed: int, workdir: Path):
        import outcomes
        self.pp, self.outcomes = pp, outcomes
        self.workload, self.workdir = workload, workdir
        self.paths, self.generated = prepare(pp, workload, seed,
                                             workdir / "inputs")
        self.passes: list[list[dict]] = []
        self.peak_mb = 0.0

    def operations(self, passdir: Path):
        """The pass's operations as zero-argument calls into the program."""
        pp = self.pp
        if self.workload == "count-export":
            dumps = {name: passdir / f"{name}.csv"
                     for name in ("distance", "ybus", "adjacency")}
            argv = ["--case", str(self.paths[0]), "--structure", "electrical",
                    "--jacobian", "solved", "--mode", "count",
                    "--dump-distance", str(dumps["distance"]),
                    "--dump-ybus", str(dumps["ybus"]),
                    "--dump-adjacency", str(dumps["adjacency"])]

            def export():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = pp.cli.main(argv)
                return code, buf.getvalue(), dumps
            return [export]

        def run_one(path: Path):
            if self.workload == "enumerate-118":
                config = pp.RunConfig(case_path=path, structure="both",
                                      mode="count",
                                      enumerate_cap=ENUMERATE_CAP)
            else:
                config = pp.RunConfig(case_path=path, structure="both",
                                      jacobian_mode="solved", mode="full",
                                      output_dir=passdir / path.stem)
            return lambda: pp.pipeline.run(config)
        return [run_one(path) for path in self.paths]

    def outcome(self, raw, passdir: Path, path: Path, first: bool) -> dict:
        """Comparable record of one operation's result; the matrices and
        parsed reports are kept for the first pass only."""
        if isinstance(raw, Exception):
            return {"error": f"{type(raw).__name__}: {raw}"}
        if self.workload == "count-export":
            code, stdout, dumps = raw
            out = self.outcomes.cli_outcome(code, stdout,
                                            dumps if first else {})
            out["files"] = {n: sha256(p) for n, p in dumps.items()
                            if p.exists()}
            return out
        out = self.outcomes.run_outcome(raw)
        reports = passdir / path.stem
        out["files"] = {str(p.relative_to(reports)): sha256(p)
                        for p in sorted(reports.rglob("*")) if p.is_file()}
        if first and self.workload != "enumerate-118":
            out["reports"] = {
                s: json.loads((reports / s / "report.json").read_text())
                for s in raw.per_structure
                if (reports / s / "report.json").exists()}
        if not first:
            out["detail"] = {}
        return out

    def measure(self, seconds: float, tracer=None, setup=None):
        """Run whole passes for `seconds`: at least one, and another only
        while the mean pass so far still fits. When a `Setup` is given,
        its samples are taken between the passes, spread evenly over the
        run, and their time is not counted in `seconds`. Returns the pass
        times and the bytes each pass wrote."""
        times, written = [], []
        start = time.perf_counter()
        while True:
            passdir = self.workdir / f"pass{len(self.passes)}"
            ops = self.operations(passdir)
            raws = []
            span = tracer.open(tracing.PASS) if tracer else None
            t0 = time.perf_counter()
            for op in ops:
                try:
                    raws.append(op())
                except Exception as exc:  # an operation that raised fails
                    raws.append(exc)
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.close(span)
            if not self.passes:
                # Set-up plus one pass: what one CLI call holds at most.
                self.peak_mb = (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024)
            written.append(sum(p.stat().st_size for p in passdir.rglob("*")
                               if p.is_file()))
            first = not self.passes
            self.passes.append([self.outcome(raw, passdir, path, first)
                                for raw, path in zip(raws, self.paths)])
            del raws
            shutil.rmtree(passdir, ignore_errors=True)
            elapsed = time.perf_counter() - start
            if setup:
                setup.take(SETUP_REPEATS * (elapsed - setup.spent) / seconds)
                elapsed = time.perf_counter() - start - setup.spent
            if elapsed + statistics.fmean(times) > seconds:
                if setup:
                    setup.take(SETUP_REPEATS)
                return times, written

    def check(self) -> tuple[int, int, list[str]]:
        """Grade every pass against the independent references."""
        import checks
        refs = [checks.Reference.build(p) for p in self.paths]
        if self.workload == "count-export":
            exact = refs[0].exact_dumps()

            def check(i, out):
                return checks.check_cli(out, refs[i], exact)
        else:
            def check(i, out):
                return checks.check_run(out, refs[i], out.get("reports"))
        return checks.grade(self.passes, check)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Setup:
    """Set-up samples: each is the wall time from starting a fresh
    interpreter until it has imported pmuplace and loaded or generated
    the workload's case files."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.samples: list[float] = []
        self.spent = 0.0   # wall time taken by sampling, children included

    def take(self, upto: float) -> None:
        """Take samples until there are at least `upto`."""
        t_start = time.perf_counter()
        while len(self.samples) < min(upto, SETUP_REPEATS):
            out = self.workdir / f"setup{len(self.samples)}"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   self.workload, "--seed", str(self.seed), "--setup-only",
                   str(out)]
            t0 = time.perf_counter()
            with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True) as proc:
                line = proc.stdout.readline()
                self.samples.append(time.perf_counter() - t0)
                proc.stdout.read()
                code = proc.wait(timeout=120)
            if line.strip() != "ready" or code != 0:
                raise RuntimeError(f"set-up child exited with {code}")
            shutil.rmtree(out, ignore_errors=True)
        self.spent += time.perf_counter() - t_start


def environment(seed: int) -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, AttributeError):
        deps = {}
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "blas": deps.get("blas", {}).get("openblas configuration")
        or deps.get("blas", {}).get("name"),
        "lapack": deps.get("lapack", {}).get("name"),
        "thread_env": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def summary(times: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                 if len(times) > 1 else times * 3)
    out = {"median": statistics.median(times), "q1": q1, "q3": q3,
           "n": len(times), "times": times}
    if len(times) >= 40:
        # The highest percentile with ten passes beyond it.
        out["tail"] = {"percentile": 100 * (len(times) - 10) / len(times),
                       "value": sorted(times)[-11]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pp = import_program()
    if args.setup_only:
        prepare(pp, args.workload, args.seed, Path(args.setup_only))
        print("ready", flush=True)
        return 0

    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        return bench(pp, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(pp, args, workdir: Path) -> int:
    work = Bench(pp, args.workload, args.seed, workdir)
    detail = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed),
              "generated_sha256": work.generated}
    spans = None
    if args.trace:
        times, _ = work.measure(args.seconds / 2)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            traced, written = work.measure(args.seconds / 2, tracer)
        finally:
            tracer.restore()
        metrics, detail["layers"] = layer_metrics(tracer, traced, written,
                                                  times)
        detail["traced_pass_s"] = summary(traced)
        spans = tracer.dump()
    else:
        setup = Setup(args.workload, args.seed, workdir)
        times, _ = work.measure(args.seconds, setup=setup)
        detail["setup_s"] = summary(setup.samples)
    detail["pass_s"] = summary(times)
    detail["peak_rss_mb"] = work.peak_mb

    failed, unexplained, problems = work.check()
    detail["problems"] = problems
    if not args.trace:
        # pass_s and setup_s are lower quartiles: on a shared host whole
        # runs can fall into slow phases, which move a run's median
        # between two levels but leave its lower quartile in place.
        metrics = {
            "setup_s": {"value": detail["setup_s"]["q1"], "unit": "s"},
            "pass_s": {"value": detail["pass_s"]["q1"], "unit": "s"},
            "peak_rss_mb": {"value": work.peak_mb, "unit": "MB"},
        }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**detail, "spans": spans}) + "\n")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("perfbench-detail " + json.dumps(detail))
    print(json.dumps({"correct": unexplained == 0,
                      "attempted": sum(len(p) for p in work.passes),
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(tracer, traced, written, untraced):
    """Per-pass means over the traced passes: each layer's self time and
    calls, the exact counters, and the tracing overhead."""
    n = len(traced)
    self_s = tracer.self_times()
    calls = tracer.calls()
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = {"value": self_s.get(layer, 0.0) / n,
                                      "unit": "s"}
        metrics[f"{layer}.calls"] = {"value": calls.get(layer, 0) / n,
                                     "unit": "count"}
    for counter in ("powerflow.iterations", "cover.pmu_count",
                    "cover.enumerated"):
        metrics[counter] = {"value": tracer.counts.get(counter, 0) / n,
                            "unit": "count"}
    metrics["report.bytes"] = {"value": sum(written) / n, "unit": "bytes"}
    pass_mean = sum(s.end - s.start for s in tracer.spans
                    if s.name == tracing.PASS) / n
    metrics["bench.glue.self_s"] = {
        "value": self_s.get(tracing.PASS, 0.0) / n, "unit": "s"}
    metrics["trace.pass_s"] = {"value": pass_mean, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": summary(traced)["q1"] - summary(untraced)["q1"],
        "unit": "s"}
    self_sum = sum(v / n for v in self_s.values())
    return metrics, {"self_sum_s": self_sum, "traced_mean_s": pass_mean,
                     "self_share": {k: v / n / pass_mean
                                    for k, v in sorted(self_s.items())}}


if __name__ == "__main__":
    sys.exit(main())
