"""Behaviour fingerprints: the colorings and traces of the builtin corpus
and of every 3-connected graph on six vertices.

Refactors of the construction must keep every coloring and every trace
line byte-identical. A change that means to alter behaviour updates the
pinned digest and says why. The public names that the layered benchmark
(`layerbench/`) traces by name are pinned here too: after a rename its
per-layer metrics would silently read 0. So are the names the package
exports, so that adding or removing one is a deliberate change.
"""

import hashlib
import inspect

import pytest

import rcbound
from rcbound import connectivity, construct, rainbow
from rcbound.cli import _build, builtin_corpus
from rcbound.connectivity import vertex_connectivity
from rcbound.construct import run_constructive
from rcbound.graphs import gen_family
from rcbound.rainbow import serialize_coloring

from test_graphs import graph_from_mask

CORPUS_SEED = 42
PINNED_SHA256 = "b0475c0a710cfbe83006fb332d965091b7fb6067b85683303d9b7c65c2b7f8b8"


def corpus_fingerprint(seed: int) -> str:
    digest = hashlib.sha256()
    for graph_id, recipe in builtin_corpus(seed):
        result = run_constructive(_build(recipe))
        digest.update(f"# {graph_id}\n".encode())
        digest.update(serialize_coloring(result.coloring).encode())
        digest.update("".join(line + "\n" for line in result.trace_lines()).encode())
    return digest.hexdigest()


def test_builtin_corpus_fingerprint():
    assert corpus_fingerprint(CORPUS_SEED) == PINNED_SHA256


# every labeled 3-connected graph on 6 vertices, keyed by its edge mask;
# nearly all of them end in a final absorption by repair search
SIX_VERTEX_COUNT = 1768
SIX_VERTEX_SHA256 = "40e4ff6f5594f3c8cf80410ff581d7bd66a2aa19c6d1c96d52007f082791beb7"


def test_six_vertex_fingerprint():
    digest, count = hashlib.sha256(), 0
    for mask in range(1 << 15):
        g = graph_from_mask(6, mask)
        if min(map(len, g.adj)) < 3 or vertex_connectivity(g) < 3:
            continue
        count += 1
        result = run_constructive(g)
        digest.update(f"# {mask}\n".encode())
        digest.update(serialize_coloring(result.coloring).encode())
        digest.update("".join(line + "\n" for line in result.trace_lines()).encode())
    assert count == SIX_VERTEX_COUNT
    assert digest.hexdigest() == SIX_VERTEX_SHA256


TRACED_NAMES = [
    (construct, "seed_subgraph"), (construct, "classify_extension"),
    (construct, "apply_extension"), (construct, "repair_step"),
    (construct, "final_absorb"), (construct, "run_constructive"),
    (connectivity, "vertex_connectivity"), (connectivity, "find_fan"),
    (rainbow, "find_rainbow_witness"), (rainbow, "rc_exact"),
]


@pytest.mark.parametrize("module,name", TRACED_NAMES,
                         ids=[f"{m.__name__}.{n}" for m, n in TRACED_NAMES])
def test_traced_name_is_module_function(module, name):
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


PUBLIC_NAMES = [
    "BudgetExhaustedError", "ConstructionError", "ConstructionResult", "EdgeColoring",
    "ExtensionPlan", "Graph", "GraphFormatError", "GrowState", "NoColoringError",
    "PreconditionError", "StepRecord", "apply_extension", "check_fan", "classify_extension",
    "color_bound", "cycle_color_sequence", "ear_color_sequence", "final_absorb", "find_fan",
    "find_rainbow_witness", "gen_family", "make_graph", "norm_edge", "parse_coloring",
    "parse_graph", "rc_exact", "repair_step", "run_constructive", "seed_subgraph",
    "serialize_coloring", "serialize_graph", "shortest_cycle", "vertex_connectivity",
]


def test_public_exports_pinned():
    # submodules are left out: importing rcbound.cli, say, adds an attribute
    exported = sorted(name for name, value in vars(rcbound).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert exported == PUBLIC_NAMES


def test_benchmark_reads_corpus_recipes_and_trace_flags():
    # layerbench/workloads.small_exact unpacks each corpus entry as
    # (graph_id, (family, params, seed)) and rebuilds it with gen_family;
    # layerbench/harness._execute sums rec.fallback and rec.repaired over
    # the trace. A change to either shape breaks the benchmark, not a test.
    for graph_id, (family, params, seed) in builtin_corpus(CORPUS_SEED):
        assert isinstance(graph_id, str)
        assert gen_family(family, *params, seed=seed) == _build((family, params, seed))
    trace = run_constructive(gen_family("complete", 4)).trace
    assert [(rec.kind, rec.fallback, rec.repaired) for rec in trace] == [
        ("seed_triangle", False, False), ("final_absorb", False, False)]
    assert sum(rec.fallback for rec in trace) == sum(rec.repaired for rec in trace) == 0
