"""The traced benchmark run wraps each method that `perfbench/spans.py`
names in `METHODS`, read from its class's `__dict__`: a named method that is
deleted from `src/`, or moved off its class, makes every traced operation
fail with a KeyError.  This reads the list and checks each name."""
import importlib
import importlib.util
import os

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(HERE, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_method_the_spans_wrap_is_defined_on_its_class():
    methods = load_spans().METHODS
    assert methods
    for (layer, clsname), names in methods.items():
        cls = getattr(importlib.import_module(f"nkoszul.{layer}"), clsname)
        missing = [m for m in names if m not in cls.__dict__]
        assert not missing, f"nkoszul.{layer}.{clsname} lacks {missing}"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(HERE, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_traced_and_untraced_resolve_runs_leave_the_last_term_unbuilt():
    """The traced run counts `koszul.terms_total_dim` by reading every
    term's `total_dim()`; the resolve workload's reports and checks read the
    generator lists and the same dimensions.  None of them may build the
    last term's actions or differential, which the segment builds only on
    first read, or a traced run would do more work than an untraced one."""
    from collections import Counter
    resolve = load_workloads().Resolve()
    seg = resolve.run(resolve.params, 0)
    top, last = seg.pmods[-1], seg.diffs[-1]
    assert "_actions" in vars(top)["_builds"]
    assert "_mats" in vars(last)["_builds"]
    counters = Counter()
    load_spans()._count_resolution(counters, seg)
    assert counters["koszul.terms_total_dim"] == sum(
        pm.total_dim() for pm in seg.pmods) > 0
    assert resolve.reports(seg) and not resolve.check(seg, resolve.params)
    assert "_actions" in vars(top)["_builds"]
    assert "_mats" in vars(last)["_builds"]
