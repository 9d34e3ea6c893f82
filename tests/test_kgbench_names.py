"""The benchmark in ``kgbench/`` reaches into the program by name: its
tracer wraps ``kg`` functions and its kernel pass calls stage functions
directly. These tests fail when a refactor renames or drops one of them."""

import math


def test_tracer_installs_and_uninstalls():
    from kgbench.tracing import KG_FUNCS, Tracer

    from text_to_graph_ray.pipelines import kg

    before = {name: getattr(kg, name) for name in KG_FUNCS}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(kg, name) is not before[name] for name in KG_FUNCS)
    finally:
        tracer.uninstall()
    assert all(getattr(kg, name) is before[name] for name in KG_FUNCS)


def test_setup_resume_and_tracer_names_resolve():
    """``kgbench/run.py`` warms up through ``records_dataset`` and
    ``keyed_records`` and invalidates partitions through the store; the
    tracer wraps the checkpoint functions and store methods it names."""
    from kgbench.tracing import CHECKPOINT_FUNCS, STORE_METHODS

    from text_to_graph_ray.pipelines import kg
    from text_to_graph_ray.state import checkpoint

    for name in ("records_dataset", "keyed_records", "_plain_keys"):
        assert callable(getattr(kg, name)), name
    for name in CHECKPOINT_FUNCS:
        assert callable(getattr(checkpoint, name)), name
    for name in (*STORE_METHODS, "invalidate_parts"):
        assert callable(getattr(checkpoint.CheckpointStore, name)), name


def test_kernel_rates_without_ray(small_corpus):
    from kgbench.kernels import kernel_rates

    rates = kernel_rates(small_corpus["path"])
    assert rates and all(math.isfinite(v) and v >= 0 for v in rates.values())
