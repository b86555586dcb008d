"""The benchmark's workloads.  Each has one caller in a closed loop: the next
operation starts when the previous one returns.

Every workload generates its inputs from the workload seed in ``prepare``
(untimed), builds the program state in ``setup``, runs one operation at a
time in ``operation`` and checks its output in ``check`` (untimed).

Why these workloads:

* ``deployed-320``: the fused form people deploy, batch 1 at 320x320.  Its
  activation maps exceed L2, so memory-bound kernels dominate; BN never runs.
* ``training-b4-96``: the training form that fuse, verify and bench evaluate,
  batch 4 at 96x96.  Four-branch depthwise mixers, 89 BN calls per forward
  and cache-resident maps, where per-call dispatch, weight re-binding and
  store validation are a larger share.
* ``weights-roundtrip``: init, save, load, fuse, save and load of the weight
  files.  No convolution runs, so it isolates the weight-file layer and the
  fusion arithmetic; a forward-path change should leave it unchanged.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import spans

PRESET = "nano"
POOL = 3  # seeded inputs per run; operation i uses input i % POOL
REFERENCE_SCRIPT = Path(__file__).resolve().parent / "reference.py"

# Timed outputs are compared with the naive-route training-form reference by
# max-abs error over the reference's max-abs, per head level.  float32 runs
# sit near 5e-6; 1e-4 leaves room for summation order, far below a wrong fold.
REL_TOL = 1e-4

# Mild, seeded batchnorm statistics: far enough from the identity that fusion
# does real folding arithmetic, close enough that activations stay moderate.
BN_STATS = {
    "mean": lambda rng, shape: rng.normal(0.0, 0.1, shape),
    "var": lambda rng, shape: rng.uniform(0.8, 1.25, shape),
    "gamma": lambda rng, shape: rng.uniform(0.8, 1.2, shape),
    "beta": lambda rng, shape: rng.normal(0.0, 0.1, shape),
}


def seeded_bn(store, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded replacements for every BN mean/var/gamma/beta entry."""
    out = {}
    for name, arr in store.entries.items():
        stat = name.rsplit(".", 1)[-1]
        if stat in BN_STATS:
            out[name] = BN_STATS[stat](rng, arr.shape).astype(np.float32)
    if not out:
        raise RuntimeError("the training-form store has no batchnorm entries")
    return out


@contextmanager
def naive_route():
    """Bind ``conv2d_naive`` in place of ``conv2d_fast`` in every loaded
    ``mhaf`` module that holds it, so that no convolution of the reference
    (standalone or inside a block) takes the route under test."""
    tensor = sys.modules["mhaf.tensor"]
    fast, naive = tensor.conv2d_fast, tensor.conv2d_naive
    bindings = spans.Bindings()
    try:
        for name, module in list(sys.modules.items()):
            if name == "mhaf" or name.startswith("mhaf."):
                bindings.bind(module, "conv2d_fast", fast, naive)
        for name in spans.TENSOR_USERS:
            if getattr(sys.modules[name], "conv2d_fast", naive) is not naive:
                raise RuntimeError(f"{name}.conv2d_fast is not mhaf.tensor.conv2d_fast")
        yield
    finally:
        bindings.restore()


def output_problem(out: dict, ref: dict) -> tuple[str | None, float]:
    """(description of the first mismatch or None, worst relative error)."""
    if set(out) != set(ref):
        return f"head levels {sorted(out)} != {sorted(ref)}", float("inf")
    worst = 0.0
    for level, r in ref.items():
        o = out[level]
        if o.shape != r.shape:
            return f"{level}: shape {o.shape} != {r.shape}", float("inf")
        scale = float(np.max(np.abs(r)))
        err = float(np.max(np.abs(o.astype(np.float64) - r))) / scale if scale else float("inf")
        if not err <= REL_TOL:
            return f"{level}: relative error {err:.3e} > {REL_TOL:.0e}", err
        worst = max(worst, err)
    return None, worst


def store_problem(saved, loaded) -> str | None:
    """None when ``loaded`` equals ``saved`` bit for bit, metadata included."""
    for attr in ("form", "seed", "spec_digest"):
        if getattr(saved, attr) != getattr(loaded, attr):
            return f"{attr} {getattr(loaded, attr)!r} != {getattr(saved, attr)!r}"
    if list(saved.entries) != list(loaded.entries):
        return "entry names or order differ"
    for name, a in saved.entries.items():
        b = loaded.entries[name]
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return f"entry '{name}' differs"
    return None


class ForwardWorkload:
    """Forward passes of one model form on a seeded pool of inputs."""

    op_label = "forward"
    item_label = "images"

    def __init__(self, api, seed: int, workdir: Path, name: str,
                 batch: int, size: int, deployed: bool):
        self.api = api
        self.seed = seed
        self.workdir = workdir
        self.name = name
        self.batch = batch
        self.size = size
        self.deployed = deployed
        self.items_per_op = batch
        self.train_path = str(workdir / "training.mhwt")
        self.reference_path = str(workdir / "reference.npz")
        self.worst_error = 0.0

    def prepare(self) -> None:
        """Have reference.py write the weight file and the references in a
        process of its own, then load the inputs and references."""
        cmd = [sys.executable, str(REFERENCE_SCRIPT), "--workload", self.name,
               "--seed", str(self.seed), "--workdir", str(self.workdir)]
        subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
        self.load_reference()

    def load_reference(self) -> None:
        with np.load(self.reference_path) as data:
            self.inputs = [data[f"input{i}"] for i in range(POOL)]
            self.refs = [
                {key.split(".", 1)[1]: data[key] for key in data.files
                 if key.startswith(f"ref{i}.")}
                for i in range(POOL)
            ]

    def write_reference(self) -> None:
        """Write the seeded training-form weight file, the seeded inputs and
        their reference outputs: the training form on the naive convolution
        route everywhere."""
        api = self.api
        rng = np.random.default_rng(self.seed)
        graph = api.assemble(api.resolve_config(PRESET))
        store = api.init_weights(graph, seed=self.seed)
        store.entries.update(seeded_bn(store, rng))
        api.save_weights(store, self.train_path)
        shape = (self.batch, 3, self.size, self.size)
        arrays = {}
        with naive_route():
            for i in range(POOL):
                x = rng.standard_normal(shape).astype(np.float32)
                arrays[f"input{i}"] = x
                for level, r in api.forward(graph, store, x, use_naive_conv=True).items():
                    arrays[f"ref{i}.{level}"] = r
        np.savez(self.reference_path, **arrays)

    def setup(self):
        api = self.api
        graph = api.assemble(api.resolve_config(PRESET))
        store = api.load_weights(self.train_path)
        if self.deployed:
            fused = api.fuse_model(graph, store)
            graph, store = fused.graph, fused.store
        return graph, store

    def operation(self, state, i: int):
        graph, store = state
        x = self.inputs[i % POOL]
        t0 = perf_counter()
        out = self.api.forward(graph, store, x)
        return out, {"forward": perf_counter() - t0}

    def forward_peak_mb(self, state) -> float:
        """Peak of the memory one forward allocates, numpy arrays and Python
        objects as tracemalloc sees them.  Untimed and untraced."""
        graph, store = state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self.api.forward(graph, store, self.inputs[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / 1e6

    def check(self, i: int, out) -> str | None:
        problem, err = output_problem(out, self.refs[i % POOL])
        if problem is None:
            self.worst_error = max(self.worst_error, err)
        return problem

    def file_mb(self) -> float:
        return os.path.getsize(self.train_path) / 1e6


class RoundtripWorkload:
    """init -> save -> load -> fuse -> save (deployed) -> load (deployed)."""

    op_label = "roundtrip"
    item_label = "roundtrips"
    items_per_op = 1

    def __init__(self, api, seed: int, workdir: Path):
        self.api = api
        self.seed = seed
        self.train_path = str(workdir / "training.mhwt")
        self.deployed_path = str(workdir / "deployed.mhwt")

    def prepare(self) -> None:
        """Draw an init seed and BN statistics for each pool slot."""
        rng = np.random.default_rng(self.seed)
        graph = self.api.assemble(self.api.resolve_config(PRESET))
        template = self.api.init_weights(graph, seed=0)
        self.pool = [(int(rng.integers(2**31)), seeded_bn(template, rng)) for _ in range(POOL)]

    def setup(self):
        """Assemble and analyse the graph."""
        api = self.api
        spec = api.resolve_config(PRESET)
        graph = api.assemble(spec)
        failed = [c.name for c in api.validate_model(spec) if not c.passed]
        if failed:
            raise RuntimeError(f"validate_model failed: {failed}")
        api.count_params_flops(graph)
        api.receptive_field(graph)
        return graph

    def operation(self, graph, i: int):
        api = self.api
        seed, bn = self.pool[i % POOL]
        steps = {}
        t0 = perf_counter()
        store = api.init_weights(graph, seed=seed)
        steps["init"] = perf_counter() - t0
        store.entries.update(bn)  # the benchmark's own step, untimed
        t0 = perf_counter()
        api.save_weights(store, self.train_path)
        t1 = perf_counter()
        loaded = api.load_weights(self.train_path)
        t2 = perf_counter()
        fused = api.fuse_model(graph, loaded).store
        t3 = perf_counter()
        api.save_weights(fused, self.deployed_path)
        t4 = perf_counter()
        loaded_fused = api.load_weights(self.deployed_path)
        t5 = perf_counter()
        steps.update(save=t1 - t0, load=t2 - t1, fuse=t3 - t2,
                     save_deployed=t4 - t3, load_deployed=t5 - t4)
        return (store, loaded, fused, loaded_fused), steps

    def forward_peak_mb(self, state) -> float:
        return 0.0  # no forward runs

    def check(self, i: int, result) -> str | None:
        store, loaded, fused, loaded_fused = result
        problem = store_problem(store, loaded)
        if problem:
            return f"training-form file: {problem}"
        problem = store_problem(fused, loaded_fused)
        return f"deployed-form file: {problem}" if problem else None

    def file_mb(self) -> float:
        return os.path.getsize(self.train_path) / 1e6


WORKLOADS = {
    "deployed-320": lambda api, seed, workdir: ForwardWorkload(
        api, seed, workdir, "deployed-320", batch=1, size=320, deployed=True),
    "training-b4-96": lambda api, seed, workdir: ForwardWorkload(
        api, seed, workdir, "training-b4-96", batch=4, size=96, deployed=False),
    "weights-roundtrip": RoundtripWorkload,
}
