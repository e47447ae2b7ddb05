"""Benchmark of pseudoe at the published dataset shapes.

    python3 perfbench/run.py --workload wn18rr-dt --seed 1 --seconds 40 --trace 0

Each run is one user session on a seeded synthetic graph with the shape of a
real dataset, using that dataset's preset:

1. set-up: ``build_store`` (and ``augmented_store`` when the preset augments),
   model init and optimizer allocation, as ``pseudoe train`` does, plus the
   checkpoint load that ``pseudoe evaluate`` and ``rank`` add;
2. rounds (four on ``wn18rr-dt``, twelve on ``hetionet-both``), each of
   - training steps, each ``sample_negatives_batch`` -> ``gradients`` ->
     ``optimizer.step`` as in the inner loop of ``train()``, for the
     workload's training share of ``--seconds`` over the rounds (100 steps
     in all at least);
   - one validation call: ``evaluate_split`` over a fixed query set;
   - ``pseudoe rank`` queries: ``score_tails`` over every entity, then a
     stable top-10, for the workload's rank share over the rounds (4 at
     least);
   - one more set-up, timed and thrown away;
3. checks: a checkpoint save, load and save, the reference phi and
   brute-force ranks.

``setup_s`` is the median of all set-ups.

The validation calls, set-ups and checks come on top of ``--seconds``.  On
``wn18rr-dt`` a step takes about 0.45 s on a 2-vCPU host, so the step floor,
not the share, governs training there (see README.md).

Correctness checks run outside the timed regions; a failed check counts as a
failed operation.  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics from spans
recorded around every call into the package (see ``tracing.py``).  Spans and
the run's provenance are written to ``.perfbench_out/`` under the checkout.

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

import checks
import synth
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_TRAIN_STEPS = 100  # enough for a p90 with ten steps above it; train_loss is taken here
LOSS_BATCHES = 8  # train_loss is over this many batches' worth of positives
MIN_RANK_QUERIES_PER_ROUND = 4
RANK_QUERY_POOL = 64
CHECKED_QUERIES = 3  # validation queries re-ranked by brute force
PHI_CHECK_TRIPLES = 64
TOP_K = 10

# Printed with the other metrics but left out of the result line and of
# BENCHMARK.json: the host alternates between fast and normal stretches that
# last from seconds to minutes, and the median step falls on either side, so
# its spread over ten seeds on wn18rr-dt ranged from 0.05 to 0.28, up to the
# largest allowed bound.  p90 and the mean (train_triples_per_s) stay put.
PRINTED_ONLY = {"train_step_ms_p50"}


@dataclass(frozen=True)
class Workload:
    shape: synth.Shape
    val_queries: int  # size of the fixed validation-query set
    rank_share: float  # of --seconds, for rank queries; training steps take the rest
    rounds: int  # each: training steps, one validation call, rank queries, a set-up


# Why these two: wn18rr-dt is the large-table case (40,943 x 501 coordinates,
# SM3, 50 tail-only negatives, full filtered ranking over every entity), where
# the dense gradient tape and all-entity scoring dominate.  hetionet-both is
# the control: multi-time projection, a cylinder, Adam, head and tail
# negatives and fixed-negatives ranking, with steps ten times smaller and no
# query that scores every entity except `rank`.  The rank share is small on
# wn18rr-dt, where 100 steps already fill the training share, and larger on
# hetionet-both, whose bandwidth-bound rank queries vary most between runs.
# The host's speed drifts by a quarter or more over seconds to minutes;
# hetionet's short calls are therefore spread over twelve rounds, so that each
# metric samples the whole run, while wn18rr-dt's long calls allow only four.
WORKLOADS = {
    "wn18rr-dt": Workload(synth.WN18RR, val_queries=3, rank_share=0.15, rounds=4),
    "hetionet-both": Workload(synth.HETIONET_SMALL, val_queries=1000, rank_share=0.3, rounds=12),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def p90(values) -> float:
    """90th percentile, interpolated between the two nearest samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    """BLAS library name, version and thread count of the running numpy."""
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                return info
    info["threads"] = "unknown"
    return info


def machine_info(package_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "package_version": package_version,
        "git_commit": git_commit(),
    }


class Session:
    """One workload run: the program's state plus everything measured about it."""

    def __init__(self, name: str, seed: int, seconds: float, tracer: Tracer, pkg):
        self.name, self.w = name, WORKLOADS[name]
        self.seed, self.seconds, self.tr, self.pkg = seed, seconds, tracer, pkg
        self.preset = pkg.presets.PRESETS[name]
        names = ("init", "batches", "negatives", "loss_batch", "queries", "clones")
        self.seeds = {n: int(s.generate_state(1)[0]) for n, s in zip(names, np.random.SeedSequence(seed).spawn(6))}
        self.attempted = 0
        self.failed = 0
        self.check_results: list[tuple[str, bool, str]] = []
        self.e2e: dict[str, tuple[float, str, str]] = {}  # name -> (value, unit, note)
        self.layer: dict[str, tuple[float, str, str]] = {}
        self.setup_s: list[float] = []
        self.step_ms: list[float] = []
        self.traced_step_ms: list[float] = []
        self.untraced_step_ms: list[float] = []
        self.eval_call_s: list[float] = []
        self.rank_ms: list[float] = []
        self.touched_rows: list[int] = []
        self.init_checkpoint: Path | None = None  # the model file each set-up loads

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.check_results.append((name, ok, detail))

    # --- inputs and set-up -----------------------------------------------

    def generate(self) -> None:
        """Inputs from the seed; not part of any timing."""
        self.graph = synth.make_graph(self.w.shape, self.seed)
        self.negatives_by_name = None
        if self.preset.get("protocol") == "fixed":
            negs = synth.fixed_negatives(self.graph, 80, self.seed)
            names, rels = self.graph.entity_names, self.graph.relation_names
            self.negatives_by_name = {(names[h], rels[k]): [names[i] for i in row] for (h, k), row in negs.items()}

    def setup(self):
        """Store, model and optimizer from the string triples, then a checkpoint
        load of that model; both timed into ``setup_s``.

        Each set-up starts from a collected and frozen heap, so that Python's
        garbage collector walks only what the set-up itself allocates, as in
        a fresh ``pseudoe`` process, whatever the session holds by then."""
        pkg, p, g = self.pkg, self.preset, self.graph
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        with self.tr.span("bench.setup"):
            with self.tr.span("data.build_store"):
                store = pkg.data.build_store(g.train, g.valid, g.test)
            if p["augment_reverse"]:
                with self.tr.span("data.augmented_store"):
                    store = pkg.data.augmented_store(store)
            with self.tr.span("model.init"):
                params = pkg.model.init(
                    store.n_entities,
                    store.n_relations,
                    pkg.geometry.GeometryConfig(pkg.geometry.Signature(p["n_t"], p["n_x"]), p["circumference"]),
                    pkg.relmaps.Variant(p["variant"]),
                    pkg.model.InitConfig(sigma_init=p["sigma_init"], seed=self.seeds["init"]),
                    tfd=pkg.likelihood.TfdParams(
                        tau1=p["tau1"], tau2=p["tau2"], u=p["u"], alpha=p["alpha"],
                        alpha_prime=p["alpha_prime"], beta=p["beta"],
                    ),
                )
            with self.tr.span("training.make_optimizer"):
                optimizer = pkg.training.make_optimizer(
                    pkg.training.OptimizerKind(p["optimizer"]), params, p["learning_rate"]
                )
        build_s = time.perf_counter() - t0
        if self.init_checkpoint is None:
            OUT_DIR.mkdir(exist_ok=True)
            self.init_checkpoint = OUT_DIR / f"init-{self.name}-{self.seed}-{os.getpid()}.ckpt"
            with self.tr.span("model.checkpoint_save"):
                pkg.model.save_checkpoint(params, self.init_checkpoint)
        # The initialised model goes before the load, as in a process that only
        # loads one; the loaded model is bit-exact and is the one returned.
        params = None
        t0 = time.perf_counter()
        with self.tr.span("bench.setup_load"):
            with self.tr.span("model.checkpoint_load"):
                params = pkg.model.load_checkpoint(self.init_checkpoint)
        self.setup_s.append(build_s + time.perf_counter() - t0)
        return store, params, optimizer

    def prepare(self) -> None:
        """Everything the timed rounds need that a user would not wait for."""
        pkg, p = self.pkg, self.preset
        training = pkg.training
        store = self.store
        self.protocol = pkg.evaluation.EvalProtocol()
        if self.negatives_by_name is not None:
            ent, rel = store.entity_to_id, store.relation_to_id
            table = {(ent[h], rel[k]): np.array([ent[n] for n in row]) for (h, k), row in self.negatives_by_name.items()}
            self.protocol = pkg.evaluation.EvalProtocol(
                mode=pkg.evaluation.EvalMode.FIXED_NEGATIVES,
                negatives=pkg.data.NegativesTable(table=table, length=80),
            )
        self.filter_rows = np.array(sorted(store.filter_index), dtype=np.int64)
        train = store.splits["train"]
        self.mode = training.NegativeMode.TAIL_ONLY if p["augment_reverse"] else training.NegativeMode.BOTH
        self.order = np.random.default_rng(self.seeds["batches"]).permutation(train.shape[0])
        self.neg_rng = np.random.default_rng(self.seeds["negatives"])
        loss_rng = np.random.default_rng(self.seeds["loss_batch"])
        rows = train[loss_rng.choice(train.shape[0], size=LOSS_BATCHES * p["batch_size"], replace=False)]
        # One batch at a time, so that the loss needs no more memory than a step.
        self.loss_batches = [
            (batch, training.sample_negatives_batch(batch, p["m_negatives"], self.mode, loss_rng, store.n_entities))
            for batch in np.split(rows, LOSS_BATCHES)
        ]
        valid = store.splits["valid"]
        picked = valid[np.random.default_rng(self.seeds["queries"]).permutation(valid.shape[0])]
        self.val_queries = picked[: self.w.val_queries]
        self.rank_queries = picked[:RANK_QUERY_POOL]

    # --- timed rounds ----------------------------------------------------

    def train_round(self, min_steps: int, seconds: float) -> None:
        """Steps as in the inner loop of ``train()``: sample, gradients, optimizer step."""
        pkg, p = self.pkg, self.preset
        training = pkg.training
        train = self.store.splits["train"]
        n, b, m = self.store.n_entities, p["batch_size"], p["m_negatives"]
        null = Tracer(False)
        deadline = time.perf_counter() + seconds
        done = 0
        while done < min_steps or time.perf_counter() < deadline:
            step = len(self.step_ms)
            start = (step * b) % train.shape[0]
            batch = train[self.order[start : start + b]]
            # In a traced run every other step is untraced, to measure the overhead.
            tr = null if (self.tr.enabled and step % 2) else self.tr
            ok = True
            t0 = time.perf_counter()
            try:
                with tr.span("bench.train_step"):
                    with tr.span("training.sample"):
                        negs = training.sample_negatives_batch(batch, m, self.mode, self.neg_rng, n)
                    with tr.span("training.gradients"):
                        tape = training.gradients(self.params, batch, negs)
                    with tr.span("training.optimizer"):
                        self.optimizer.step(self.params, tape)
            except training.DivergenceError:
                ok = False
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            self.step_ms.append(elapsed_ms)
            self.attempted += 1
            done += 1
            if ok:
                rows = tape.touched_entities
                # gradients() raises DivergenceError on a non-finite score, so a
                # finite step loss also needs finite gradients on touched rows.
                ok = bool(np.all(np.isfinite(tape.coords[rows])) and np.all(np.isfinite(tape.node_bias[rows])))
                self.touched_rows.append(rows.size)
                self.grad_bytes = sum(getattr(tape, f.name).nbytes for f in fields(tape))
            self.failed += 0 if ok else 1
            if self.tr.enabled:
                (self.untraced_step_ms if tr is null else self.traced_step_ms).append(elapsed_ms)
                triples = np.concatenate([batch, negs.reshape(-1, 3)])
                with self.tr.span("model.forward"):
                    pkg.model.score_many(self.params, triples[:, 0], triples[:, 1], triples[:, 2])
            if len(self.step_ms) == MIN_TRAIN_STEPS:
                self.train_loss = sum(training.nll_loss(self.params, bt, ng) for bt, ng in self.loss_batches)

    def validation_round(self) -> None:
        """One ``evaluate_split`` call, as each validation round of ``train()`` makes."""
        t0 = time.perf_counter()
        with self.tr.span("evaluation.evaluate_split"):
            self.pkg.evaluation.evaluate_split(
                self.params, self.val_queries, self.store.filter_index, self.protocol, threads=1
            )
        self.eval_call_s.append(time.perf_counter() - t0)
        self.attempted += len(self.val_queries)

    def rank_round(self, min_queries: int, seconds: float) -> None:
        """``pseudoe rank``: score every entity as a tail, then a stable top-10."""
        everyone = np.arange(self.params.n_entities)
        deadline = time.perf_counter() + seconds
        done = 0
        while done < min_queries or time.perf_counter() < deadline:
            h, k, _ = (int(v) for v in self.rank_queries[len(self.rank_ms) % len(self.rank_queries)])
            t0 = time.perf_counter()
            with self.tr.span("bench.rank_query"):
                with self.tr.span("model.score_tails"):
                    scores = self.pkg.model.score_tails(self.params, h, k, everyone)
                top = np.argsort(-scores, kind="stable")[:TOP_K]
            self.rank_ms.append((time.perf_counter() - t0) * 1e3)
            self.attempted += 1
            self.failed += 0 if checks.top_k_is_sorted_prefix(scores, top) else 1
            done += 1

    # --- checks after the timed rounds -----------------------------------

    def candidates(self, h, k, t):
        """The competitors ``evaluate_split`` ranks the true tail ``t`` against."""
        if self.protocol.mode is self.pkg.evaluation.EvalMode.FIXED_NEGATIVES:
            return self.protocol.negatives.table[(h, k)]
        f = self.filter_rows
        mask = np.ones(self.store.n_entities, dtype=bool)
        mask[f[(f[:, 0] == h) & (f[:, 1] == k), 2]] = False
        mask[t] = False
        return np.flatnonzero(mask)

    def clone_for_ties(self, queries) -> None:
        """Copy each query's true tail onto one of its competitors, so that the
        competitor's score ties with the true tail's exactly."""
        rng = np.random.default_rng(self.seeds["clones"])
        for h, k, t in queries:
            c = int(rng.choice(self.candidates(h, k, t)))
            self.params.coords[c] = self.params.coords[t]
            self.params.node_bias[c] = self.params.node_bias[t]

    def checkpoint(self) -> None:
        """Save and load as ``pseudoe train`` and then ``evaluate`` or ``rank`` do;
        the loaded model serves the checks that follow."""
        model = self.pkg.model
        OUT_DIR.mkdir(exist_ok=True)
        first, second = (OUT_DIR / f"model-{self.name}-{self.seed}-{os.getpid()}-{i}.ckpt" for i in (1, 2))
        try:
            with self.tr.span("model.checkpoint_save"):
                model.save_checkpoint(self.params, first)
            self.params = None
            with self.tr.span("model.checkpoint_load"):
                self.params = model.load_checkpoint(first)
            with self.tr.span("model.checkpoint_save"):
                model.save_checkpoint(self.params, second)
            self.checkpoint_bytes = first.stat().st_size
            self.check("checkpoint round trip is byte-identical", *checks.same_file_bytes(first, second))
        finally:
            first.unlink(missing_ok=True)
            second.unlink(missing_ok=True)

    def rank_check(self, queries) -> None:
        """``evaluate_split`` ranks equal brute-force ranks from ``score_many``, ties included."""
        model = self.pkg.model
        report = self.pkg.evaluation.evaluate_split(
            self.params, queries, self.store.filter_index, self.protocol, threads=1
        )
        for triple, got in report.per_triple_ranks:
            want, ties = checks.brute_force_rank(self.params, triple, self.candidates(*triple), model.score_many)
            # Every checked query's true tail has a clone among its competitors.
            ok = got == want and ties >= 1
            self.check("evaluate_split rank equals brute force, with a tie", ok, f"{triple}: {got} vs {want}, {ties} ties")

    def phi_check(self) -> None:
        rng = np.random.default_rng(self.seeds["queries"] + 1)
        train = self.store.splits["train"]
        triples = train[rng.choice(train.shape[0], size=PHI_CHECK_TRIPLES, replace=False)].copy()
        triples[PHI_CHECK_TRIPLES // 2 :, 2] = rng.integers(0, self.store.n_entities, PHI_CHECK_TRIPLES // 2)
        ok, detail = checks.phi_matches_reference(self.params, triples, self.pkg.model.score_many)
        self.check("score_many matches the reference phi", ok, detail)

    # --- the session -------------------------------------------------------

    def run(self) -> None:
        """Set-up, then rounds of training, a validation call, rank
        queries and a set-up, so every end-to-end metric samples the whole run
        rather than one stretch of it; then the checks."""
        self.generate()
        try:
            self.store, self.params, self.optimizer = self.setup()
            self.prepare()
            self.negatives_by_name = None
            rounds = self.w.rounds
            for i in range(rounds):
                self.train_round(-(-MIN_TRAIN_STEPS // rounds), (1 - self.w.rank_share) * self.seconds / rounds)
                self.validation_round()
                self.rank_round(MIN_RANK_QUERIES_PER_ROUND, self.w.rank_share * self.seconds / rounds)
                if i == 0:
                    # Read before a set-up overlaps the session's tables; the
                    # later rounds repeat the same calls on the same sizes.
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                self.setup()

            checked = [tuple(int(v) for v in q) for q in self.val_queries[:CHECKED_QUERIES]]
            self.check("train_loss is finite", bool(np.isfinite(self.train_loss)), f"{self.train_loss!r}")
            self.clone_for_ties(checked)
            self.checkpoint()
            self.phi_check()
            self.rank_check(np.asarray(checked))
            if self.tr.enabled:
                self.extra_layer_timings()
        finally:
            if self.init_checkpoint is not None:
                self.init_checkpoint.unlink(missing_ok=True)
        self.report(peak_rss_mb)

    def extra_layer_timings(self) -> None:
        """Layer timings that no end-to-end path of this workload produces."""
        evaluation = self.pkg.evaluation
        with self.tr.span("evaluation.evaluate_split_single"):
            evaluation.evaluate_split(self.params, self.val_queries[:1], self.store.filter_index, self.protocol, threads=1)
        if not self.preset["augment_reverse"]:
            # Not on this preset's set-up path.  A traced run reports every
            # per-layer metric, so the layer is timed here at this shape.
            for _ in range(3):
                with self.tr.span("data.augmented_store"):
                    self.pkg.data.augmented_store(self.store)

    def report(self, peak_rss_mb: float) -> None:
        p = self.preset
        b, m = p["batch_size"], p["m_negatives"]
        steps, queries = len(self.step_ms), len(self.rank_ms)
        # The mean, not the median: the host's speed has two levels, and a
        # median of calls jumps between them while the mean moves smoothly.
        eval_call = statistics.mean(self.eval_call_s)
        v = len(self.val_queries)
        self.e2e = {
            "setup_s": (statistics.median(self.setup_s), "s", "median of " + ", ".join(f"{d:.3f}" for d in self.setup_s)),
            "train_triples_per_s": (b * steps / (sum(self.step_ms) / 1e3), "1/s", f"{steps} steps of {b} positives"),
            "train_step_ms_p50": (statistics.median(self.step_ms), "ms", f"{steps} steps"),
            "train_step_ms_p90": (p90(self.step_ms), "ms", f"{steps} steps"),
            "train_loss": (
                self.train_loss, "nats", f"nll_loss after {MIN_TRAIN_STEPS} steps, {LOSS_BATCHES * b} positives x {m} negatives"
            ),
            "eval_queries_per_s": (v / eval_call, "1/s", f"mean of {len(self.eval_call_s)} evaluate_split calls of {v} queries"),
            "rank_ms_p50": (statistics.median(self.rank_ms), "ms", f"{queries} queries"),
            "rank_ms_p90": (p90(self.rank_ms), "ms", f"{queries} queries"),
            "peak_rss_mb": (peak_rss_mb, "MB", "max resident set of this process after the first round"),
        }
        if not self.tr.enabled:
            return
        med_ms = lambda name: statistics.median(self.tr.durations(name)) * 1e3  # noqa: E731
        med_s = lambda name: statistics.median(self.tr.durations(name))  # noqa: E731
        of = lambda name: f"median of {len(self.tr.durations(name))}"  # noqa: E731
        n_traced = len(self.tr.durations("training.gradients"))
        n = self.store.n_entities
        tp = self.params
        gathered = 8 * (2 * (tp.n_t + tp.n_x) + tp.n_t + 2 * (1 + tp.n_x) + 3)  # bytes per triple
        counts = [self.candidates(*map(int, q)).size for q in self.val_queries]
        fixed = self.protocol.mode is self.pkg.evaluation.EvalMode.FIXED_NEGATIVES
        touched = statistics.median(self.touched_rows)
        self.layer = {
            "training.sample_ms": (med_ms("training.sample"), "ms", f"median of {n_traced} traced steps"),
            "training.gradients_ms": (med_ms("training.gradients"), "ms", f"median of {n_traced} traced steps"),
            "model.forward_ms": (med_ms("model.forward"), "ms", f"score_many on each step's {b * (1 + m)} triples"),
            "training.backward_ms": (
                med_ms("training.gradients") - med_ms("model.forward"), "ms", "derived: gradients_ms - forward_ms"
            ),
            "training.optimizer_ms": (med_ms("training.optimizer"), "ms", p["optimizer"]),
            "training.grad_bytes": (self.grad_bytes, "B", "computed: nbytes of the arrays gradients() returns"),
            "training.touched_rows": (touched, "count", "median unique entity rows per step"),
            "training.grad_row_util": (touched / n, "ratio", f"touched rows over {n} allocated rows"),
            "model.forward_gather_bytes": (gathered * b * (1 + m), "B", "computed: parameter bytes gathered per step"),
            "model.score_tails_ms": (med_ms("model.score_tails"), "ms", f"one query against {n} entities"),
            "evaluation.query_ms": (eval_call * 1e3 / v, "ms", "mean evaluate_split call over its queries"),
            "evaluation.single_query_s": (
                med_s("evaluation.evaluate_split_single"),
                "s",
                "one-triple split" if fixed else "one-triple split; pays the filter build",
            ),
            "evaluation.candidates_per_query": (statistics.mean(counts), "count", ""),
            "evaluation.filtered_per_query": (
                0 if fixed else statistics.mean(n - 1 - c for c in counts), "count", "known true tails removed"
            ),
            "model.checkpoint_save_s": (med_s("model.checkpoint_save"), "s", of("model.checkpoint_save")),
            "model.checkpoint_load_s": (med_s("model.checkpoint_load"), "s", of("model.checkpoint_load")),
            "model.checkpoint_bytes": (self.checkpoint_bytes, "B", ""),
            "data.build_store_s": (med_s("data.build_store"), "s", of("data.build_store")),
            "data.augmented_store_s": (med_s("data.augmented_store"), "s", of("data.augmented_store")),
            "model.init_s": (med_s("model.init"), "s", of("model.init")),
            "training.make_optimizer_s": (med_s("training.make_optimizer"), "s", of("training.make_optimizer")),
            "trace.overhead_ms": (
                statistics.median(self.traced_step_ms) - statistics.median(self.untraced_step_ms),
                "ms",
                f"median traced minus untraced step, {len(self.traced_step_ms)}/{len(self.untraced_step_ms)} steps",
            ),
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pseudoe" / "__init__.py").is_file():
        print(f"perfbench: the package sources are missing ({src / 'pseudoe'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pseudoe
    import pseudoe.presets

    tracer = Tracer(enabled=bool(args.trace))
    session = Session(args.workload, args.seed, args.seconds, tracer, pseudoe)
    session.run()

    metrics = session.layer if args.trace else session.e2e
    ops_failed_frac = session.failed / session.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<34s} {value:>14.6g} {unit:<6s} {note}{' (printed only)' if name in PRINTED_ONLY else ''}")
    print(f"  {'ops_failed_frac':<34s} {ops_failed_frac:>14.6g} {'ratio':<6s} {session.failed} of {session.attempted}")
    for name, ok, detail in session.check_results:
        print(f"  check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "derived_seeds": session.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(pseudoe.__version__),
    }
    if args.trace:
        self_times = tracer.self_times()
        total = sum(self_times.values())
        for name, s in sorted(self_times.items(), key=lambda kv: -kv[1]):
            print(f"  self time {name:<34s} {s:>10.4f} s {100 * s / total:6.2f}%")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json", provenance)
    print(json.dumps({"provenance": provenance}))
    correct = session.failed == 0 and all(ok for _, ok, _ in session.check_results)
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit, _) in metrics.items()
            if name not in PRINTED_ONLY
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
