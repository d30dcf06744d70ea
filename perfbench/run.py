"""ZeroER pipeline benchmark: one closed-loop client running ops back to back.

Run from the repository root:

    python3 perfbench/run.py --workload ds-resolve --seed 1 --seconds 15 --trace 0

A run generates its dataset from ``--seed``, sets up (Spark session, data
generation, one warm-up op), then runs ops back to back for ``--seconds``
(at least two ops) and checks the output of every op (see checks.py).
``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics (see tracing.py).
The last line of stdout is one JSON object; the full record of the run
(configuration, op times, digests, spans) is written under perfbench/out/.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # imports are part of set-up

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from tracing import Target, Tracer, per_op_totals  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CORES = min(4, os.cpu_count() or 1)
# A run must exit within 180 s: no measured op starts once the last op's time
# would carry the run past this.
RUN_LIMIT_S = 150
DRIVER_MEM = "1g"


@dataclass(frozen=True)
class Workload:
    """Each op is ``featurize(include_intra=True)`` + ``run_zeroer`` +
    ``evaluate`` on the dataset the generator makes from the seed."""

    generator: str  # function of repro.erdata.generators, called with seed=
    scale: float
    f1_floor: float


WORKLOADS = {
    # Dirty publications with duplicates on the right: 3.3k of the 4k pairs
    # are intra-right, so self-blocking and the similarity kernels on long
    # titles carry a large share of the op. Scale 0.04, because at 0.06 some
    # seeds make EM enumerate millions of transitivity constraints and the
    # op 5x slower (see README.md).
    "ds-resolve": Workload("dblp_scholar", 0.04, 0.6),
    # Clean restaurants, ~1.7k pairs: Spark's per-job and per-task cost is
    # most of the op.
    "fz-resolve": Workload("fodors_zagats", 0.5, 0.9),
}

# (metric, unit) reported with --trace 0 and --trace 1, in BENCHMARK.json order.
END_TO_END = [
    ("op_s", "s"), ("pairs_per_s", "1/s"), ("f1", "ratio"), ("setup_s", "s"),
    ("driver_rss_mb", "MB"), ("success_rate", "ratio"),
]
PER_LAYER = [
    ("erdata.gen_s", "s"),
    ("blocking.cross_s", "s"), ("blocking.self_s", "s"),
    ("blocking.cross_pairs", "count"), ("blocking.intra_pairs", "count"),
    ("blocking.match_recall", "ratio"), ("blocking.pairs_per_match", "ratio"),
    ("blocking.spark_jobs", "count"), ("blocking.spark_tasks", "count"),
    ("textsim.join_s", "s"), ("textsim.features_s", "s"), ("textsim.us_per_pair", "us"),
    ("textsim.spark_jobs", "count"), ("textsim.spark_tasks", "count"),
    ("core.scaling.fit_s", "s"), ("core.scaling.transform_s", "s"),
    ("core.em.collect_s", "s"), ("core.em.corr_s", "s"), ("core.em.estep_s", "s"),
    ("core.gmm.logpdf_s", "s"), ("core.em.mstep_s", "s"),
    ("core.regularization.kappa_s", "s"), ("core.em.iterations", "count"),
    ("core.transitivity.enumerate_s", "s"), ("core.transitivity.resolve_s", "s"),
    ("core.transitivity.constraints", "count"), ("core.transitivity.adjusted", "count"),
    ("core.transitivity.adjusted_ratio", "ratio"),
    ("core.zeroer.self_s", "s"),
    ("eval.evaluate_s", "s"), ("eval.spark_jobs", "count"),
    ("trace.op_s", "s"), ("trace.overhead_ratio", "ratio"),
]
# Per-layer metrics summed from spans: metric → (span field, span names);
# a name ending in "." matches every span with that prefix.
SPAN_FIELDS = {
    "erdata.gen_s": ("dur", ["erdata.gen"]),
    "blocking.cross_s": ("dur", ["blocking.cross"]),
    "blocking.self_s": ("dur", ["blocking.self"]),
    "blocking.cross_pairs": ("rows", ["blocking.cross"]),
    "blocking.intra_pairs": ("rows", ["blocking.self"]),
    "blocking.spark_jobs": ("jobs", ["blocking."]),
    "blocking.spark_tasks": ("tasks", ["blocking."]),
    "textsim.join_s": ("dur", ["textsim.join"]),
    "textsim.features_s": ("dur", ["textsim.features"]),
    "textsim.feature_rows": ("rows", ["textsim.features"]),
    "textsim.spark_jobs": ("jobs", ["textsim."]),
    "textsim.spark_tasks": ("tasks", ["textsim."]),
    "core.scaling.fit_s": ("dur", ["core.scaling.fit"]),
    "core.scaling.transform_s": ("dur", ["core.scaling.transform"]),
    "core.em.collect_s": ("dur", ["core.em.collect"]),
    "core.em.corr_s": ("dur", ["core.em.corr"]),
    "core.em.estep_s": ("dur", ["core.em.estep."]),
    "core.gmm.logpdf_s": ("dur", ["core.gmm.logpdf"]),
    "core.em.mstep_s": ("dur", ["core.em.mstep"]),
    "core.regularization.kappa_s": ("dur", ["core.regularization.kappa"]),
    "core.transitivity.enumerate_s": ("dur", ["core.transitivity.enumerate"]),
    "core.transitivity.resolve_s": ("dur", ["core.transitivity.resolve"]),
    "core.transitivity.constraints": ("rows", ["core.transitivity.enumerate"]),
    "core.transitivity.adjusted": ("rows", ["core.transitivity.resolve"]),
    "core.zeroer.self_s": ("self", ["core.zeroer"]),
    "eval.evaluate_s": ("dur", ["eval.evaluate"]),
    "eval.spark_jobs": ("jobs", ["eval.evaluate"]),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="ZeroER pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def spark_env() -> None:
    """Launch settings for the Spark JVM, which reads them at start.

    Scratch space (including the JVM's perf data) stays inside
    perfbench/out, and the Python workers import ``repro`` from this
    checkout.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    paths = [str(ROOT / "src"), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]",
        f"--driver-memory {DRIVER_MEM}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf " + shlex.quote(f"spark.local.dir={tmp}"),
        "--driver-java-options " + shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
        "pyspark-shell",
    ])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def stop_spark(spark) -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def source_info() -> dict:
    """Git SHA when this is a git checkout, and a digest of src/ always."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def trace_targets():
    """Every public function traced, with the span name it records under.

    ``featurize`` looks up the blocking and textsim functions in the
    ``repro.core.zeroer`` namespace, ``scale_features`` and ``_joint_em``
    look up the scaling, EM and transitivity functions as attributes of
    their modules, so those are the names wrapped.
    """
    from repro import eval as eval_mod
    from repro.core import em, gmm, regularization, scaling, transitivity, zeroer

    T = Target
    nb = em.NumpyBackend
    return [
        T(zeroer, "featurize", "core.zeroer.featurize"),
        T(zeroer, "cross_block", "blocking.cross", spark=True, materialize="release"),
        T(zeroer, "self_block", "blocking.self", spark=True, materialize="release"),
        T(zeroer, "pairs_with_attrs", "textsim.join", spark=True, materialize="release"),
        T(zeroer, "compute_features", "textsim.features", spark=True, materialize="release"),
        T(scaling, "fit_scaler", "core.scaling.fit", spark=True),
        T(scaling.Scaler, "transform", "core.scaling.transform", spark=True, materialize="keep"),
        T(zeroer, "run_zeroer", "core.zeroer"),
        T(nb, "from_spark", "core.em.collect", spark=True),
        T(em, "shared_correlation", "core.em.corr"),
        T(nb, "suffstats", "core.em.estep.suffstats"),
        T(nb, "match_candidates", "core.em.estep.match_candidates"),
        T(nb, "lookup", "core.em.estep.lookup"),
        T(nb, "posterior_vector", "core.em.estep.posterior_vector"),
        T(gmm.BlockGaussian, "logpdf", "core.gmm.logpdf"),
        T(em, "build_params", "core.em.mstep"),
        T(regularization, "adaptive_kappas", "core.regularization.kappa"),
        T(transitivity, "enumerate_constraints", "core.transitivity.enumerate", count_items=True),
        T(transitivity, "resolve", "core.transitivity.resolve", count_items=True),
        T(eval_mod, "evaluate", "eval.evaluate", spark=True),
    ]


class Bench:
    """One run: set-up, the measured window, and its results."""

    def __init__(self, args, wl: Workload):
        self.args, self.wl = args, wl
        self.spark = None
        self.ops: list[dict] = []
        self.extra: dict[str, dict[str, float]] = {}  # per-op values not read from spans
        self.ref_digest: str | None = None

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        from jobs._common import session
        from repro.erdata import generators

        self.spark = session("perfbench")
        self.spark.sparkContext.setLogLevel("ERROR")
        # One shuffle partition per core instead of session()'s 64:
        # see perfbench/README.md.
        self.spark.conf.set("spark.sql.shuffle.partitions", str(CORES))
        t_session = time.perf_counter()
        self.tracer = None
        if self.args.trace:
            self.tracer = Tracer(self.spark)
            self.targets = trace_targets()
        wl = self.wl
        with self._traced(self.tracer is not None):
            span = self.tracer.span("erdata.gen") if self.tracer else nullcontext()
            t = time.perf_counter()
            with span:
                self.ds = getattr(generators, wl.generator)(self.spark, scale=wl.scale, seed=self.args.seed)
                self.ds.counts()  # materialize the cached sides
            gen_s = time.perf_counter() - t
            self.truth = self.ds.matches.toPandas().drop_duplicates()
            warm = self._op("setup")
        if self.tracer:
            self._close_traced_op("setup")
        if "s" not in warm:
            raise RuntimeError(f"warm-up op failed: {warm['problems']}")
        self.setup_parts = {
            "imports_and_session_s": t_session - _T0,
            "gen_s": gen_s,
            "warmup_op_s": warm["s"],
        }
        self.setup_s = sum(self.setup_parts.values())

    def _traced(self, on: bool):
        return self.tracer.installed(self.targets) if on else nullcontext()

    # -- one op ---------------------------------------------------------
    def _op(self, op_id: str) -> dict:
        """Run one op, time it, check its output; never raises."""
        from repro import eval as eval_mod
        from repro.core import zeroer

        rec: dict = {"op": op_id}
        task = None
        try:
            t = time.perf_counter()
            task = zeroer.featurize(self.spark, self.ds, include_intra=True)
            res = zeroer.run_zeroer(self.spark, task)
            prf = eval_mod.evaluate(res.predictions, self.ds.matches)
            rec["s"] = time.perf_counter() - t
            if op_id == "setup":
                self.pairs = {k: getattr(task, k).count() for k in ("cross", "left", "right")}
            pred = res.predictions.toPandas()
            rec["digest"], rec["problems"] = checks.problems(
                pred, self.truth, prf, self.wl.f1_floor, self.ref_digest
            )
            if res.n_candidates != self.pairs["cross"]:
                rec["problems"].append(f"{res.n_candidates} cross candidates, expected {self.pairs['cross']}")
            rec.update(f1=prf.f1, tp=prf.tp, fp=prf.fp, fn=prf.fn, iterations=res.n_iterations)
            self.extra.setdefault(op_id, {})["core.em.iterations"] = res.n_iterations
            if self.ref_digest is None:
                self.ref_digest = rec["digest"]
        except Exception as e:  # an op that raises is counted as failed
            traceback.print_exc(file=sys.stderr)
            rec["problems"] = [f"{type(e).__name__}: {e}"]
        finally:
            if task is not None:
                task.unpersist()
        rec["ok"] = not rec["problems"]
        return rec

    def _close_traced_op(self, op_id: str) -> None:
        """Blocking recall from the op's cross candidates, then end the op."""
        cross = self.tracer.outputs.get("blocking.cross")
        if cross is not None:
            cp = cross.select("l_id", "r_id").toPandas()
            hits = len(cp.merge(self.truth, on=["l_id", "r_id"]))
            ex = self.extra.setdefault(op_id, {})
            ex["blocking.match_recall"] = hits / len(self.truth)
            ex["blocking.pairs_per_match"] = len(cp) / len(self.truth)
        self.tracer.end_op()

    # -- measured window ------------------------------------------------
    def measure(self) -> None:
        # Two ops at least, so op_s, their median, never rests on one op.
        min_ops = 2
        start = time.perf_counter()
        while len(self.ops) < min_ops or time.perf_counter() - start < self.args.seconds:
            if self.ops and time.perf_counter() - _T0 + self.ops[-1].get("s", 0) > RUN_LIMIT_S:
                print("perfbench: run time limit reached; measured window cut short", file=sys.stderr)
                break
            i = len(self.ops)
            op_id = f"op{i}"
            traced = self.tracer is not None and i % 2 == 1
            if traced:
                self.tracer.op = op_id
            with self._traced(traced):
                rec = self._op(op_id)
            if traced:
                self._close_traced_op(op_id)
            rec["traced"] = traced
            self.ops.append(rec)
            if not rec["ok"]:
                print(f"op {op_id} failed: {rec['problems']}", file=sys.stderr)

    # -- results --------------------------------------------------------
    def end_to_end(self) -> dict[str, float]:
        times = [r["s"] for r in self.ops if "s" in r]
        op_s = statistics.median(times)
        failed = sum(not r["ok"] for r in self.ops)
        return {
            "op_s": op_s,
            "pairs_per_s": sum(self.pairs.values()) / op_s,
            "f1": statistics.median(r["f1"] for r in self.ops if "f1" in r),
            "setup_s": self.setup_s,
            "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": (len(self.ops) - failed) / len(self.ops),
        }

    def per_layer(self) -> dict[str, float]:
        totals = per_op_totals(self.tracer, SPAN_FIELDS)
        for op_id, ex in self.extra.items():
            totals.setdefault(op_id, {}).update(ex)
        for t in totals.values():
            if t.get("textsim.feature_rows"):
                t["textsim.us_per_pair"] = 1e6 * t["textsim.features_s"] / t["textsim.feature_rows"]
            if t.get("core.transitivity.constraints"):
                t["core.transitivity.adjusted_ratio"] = (
                    t["core.transitivity.adjusted"] / t["core.transitivity.constraints"]
                )
        traced = [r["op"] for r in self.ops if r["traced"]]
        out = {}
        for name, _ in PER_LAYER:
            # Generation runs only in set-up and reports its set-up span.
            vals = [totals[o][name] for o in traced if name in totals.get(o, {})]
            if not vals and name in totals.get("setup", {}):
                vals = [totals["setup"][name]]
            if vals:
                out[name] = statistics.median(vals)
        t_traced = [r["s"] for r in self.ops if r["traced"] and "s" in r]
        t_plain = [r["s"] for r in self.ops if not r["traced"] and "s" in r]
        if t_traced and t_plain:
            out["trace.op_s"] = statistics.median(t_traced)
            out["trace.overhead_ratio"] = out["trace.op_s"] / statistics.median(t_plain)
        return out

    def record(self, metrics: dict, units: dict) -> dict:
        conf = dict(self.spark.sparkContext.getConf().getAll())
        conf["spark.sql.shuffle.partitions"] = self.spark.conf.get("spark.sql.shuffle.partitions")
        times = [r["s"] for r in self.ops if "s" in r]
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "generator": self.wl.generator,
            "scale": self.wl.scale,
            "f1_floor": self.wl.f1_floor,
            "pairs": self.pairs,
            "nproc": os.cpu_count(),
            "spark_cores": CORES,
            "spark_conf": conf,
            **source_info(),
            "digest": self.ref_digest,
            "setup_parts": self.setup_parts,
            "op_times_s": times,
            "ops": self.ops,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/repro", "jobs/_common.py") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {', '.join(missing)} missing under {ROOT}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    spark_env()
    bench = Bench(args, WORKLOADS[args.workload])
    try:
        bench.setup()
        bench.measure()
        if not any("s" in r for r in bench.ops):
            print("perfbench: every op raised; no timing to report", file=sys.stderr)
            return 1
        if args.trace:
            metrics, units = bench.per_layer(), dict(PER_LAYER)
        else:
            metrics, units = bench.end_to_end(), dict(END_TO_END)
        missing = [k for k in units if k not in metrics]
        if missing:
            print(f"perfbench: no value for {missing}", file=sys.stderr)
            return 1
        rec = bench.record(metrics, units)
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(json.dumps(rec, indent=1, default=str))
        if bench.tracer:
            (OUT / f"{stem}-spans.json").write_text(json.dumps(bench.tracer.records()))
    finally:
        if bench.spark is not None:
            stop_spark(bench.spark)
    failed = sum(not r["ok"] for r in bench.ops)
    for k, v in metrics.items():
        print(f"{k:34s} {v:14.6g} {units[k]}")
    print(f"ops {len(bench.ops)} (failed {failed}), op times {[round(t, 3) for t in rec['op_times_s']]}, "
          f"digest {bench.ref_digest}, pairs {bench.pairs}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": rec["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
