"""The built-in workloads are a few dozen kernel shapes.

Every ledger recipe's scale (full and smoke) builds at most 64 distinct
shapes for up to 8,192 kernels, a rebuild creates no shape, and each
layer prepares a shape once: the compiler slices it and the plan builder
generates its evaluator on its first kernel only.
"""

from __future__ import annotations

import pytest

from repro.compiler import embed
from repro.compiler.policy import ThresholdPolicy
from repro.isa.instructions import LINE_BYTES
from repro.isa.program import shape_count
from repro.sim.vector import plans
from repro.workloads.registry import all_workload_names, get_workload

#: (cores, scale, reps) of every ledger recipe that builds the NAS
#: workloads, full and smoke.
RECIPES = {
    "report-cold": (2, 0.03, 1),
    "report-warm": (2, 0.01, 1),
    "fig6-vector": (8, 0.2, 4),
    "inject-forked": (2, 0.2, 16),
    "service-mixed": (2, 0.05, 4),
    "smoke-report": (2, 0.001, 1),
    "smoke-fig6-vector": (2, 0.05, 2),
    "smoke-inject-forked": (2, 0.05, 4),
    "smoke-service-mixed": (2, 0.02, 4),
}

MAX_SHAPES = 64
MAX_KERNELS = 8192


def _build(cores, scale, reps):
    return {
        name: get_workload(name).build_programs(
            cores, region_scale=scale, reps=reps
        )
        for name in all_workload_names()
    }


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_recipe_shapes_are_few_and_rebuilds_add_none(recipe):
    built = _build(*RECIPES[recipe])
    kernels = [k for progs in built.values() for p in progs for k in p.kernels]
    shapes = {k.shape for k in kernels}
    assert len(kernels) <= MAX_KERNELS
    assert len(shapes) <= MAX_SHAPES
    before = shape_count()
    _build(*RECIPES[recipe])
    assert shape_count() == before


def test_each_shape_is_sliced_and_evaluated_once(monkeypatch):
    calls = {"slice": 0, "eval": 0}

    def counted(name, fn):
        def wrapper(shape):
            calls[name] += 1
            return fn(shape)
        return wrapper

    monkeypatch.setattr(embed, "_slice_shape",
                        counted("slice", embed._slice_shape))
    monkeypatch.setattr(plans, "_generate_evaluator",
                        counted("eval", plans._generate_evaluator))
    built = _build(*RECIPES["fig6-vector"])
    kernels = [k for progs in built.values() for p in progs for k in p.kernels]
    shapes = {k.shape for k in kernels}
    unsliced = sum(s.slicing is None for s in shapes)
    unplanned = sum(s.evaluator is None for s in shapes)
    for name, programs in built.items():
        policy = ThresholdPolicy(get_workload(name).default_threshold)
        for program in programs:
            embed.compile_program(program, policy)
    for kernel in kernels:
        plans._build_plan(kernel, 0, LINE_BYTES)
    assert len(kernels) == 7936 and len(shapes) <= MAX_SHAPES
    assert calls == {"slice": unsliced, "eval": unplanned}
    # A second pass over the same shapes prepares nothing.
    for program in built["cg"]:
        embed.compile_program(program, ThresholdPolicy(3))
    assert calls == {"slice": unsliced, "eval": unplanned}
