"""Each kernel shape is prepared once, across every registered workload.

Every registered workload at the fig6-vector ledger recipe (8 cores,
scale 0.2, 4 reps) is built, compiled and stepped one iteration per
kernel on the plain interpreter and on the timed one, in one fresh
process (shape and stepper counts are process-wide): a few dozen shapes
for ~16k kernels, at most one generated stepper and one generated timed
stepper per plain (ASSOC-ADDR-free) shape, and a second pass creates no
shape and generates no stepper of either kind.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = r'''
from repro.arch.config import MachineConfig
from repro.compiler.embed import compile_program
from repro.compiler.policy import ThresholdPolicy
from repro.isa import interpreter
from repro.isa.program import shape_count
from repro.sim.simulator import SimulationOptions, Simulator, _Run
from repro.workloads.registry import all_workload_names, get_workload

generated = []
generate = interpreter._generate_stepper


def counted(shape, timed=False):
    generated.append((shape, timed))
    return generate(shape, timed)


interpreter._generate_stepper = counted


def step_every_kernel(program, timing=None):
    it = interpreter.Interpreter(program, interpreter.MemoryImage(0),
                                 timing=timing)
    for k, kernel in enumerate(program.kernels):
        it.restore_arch_state((k, 0, [0] * (kernel.shape.width + 1)))
        it.step_iterations(1)


def build_compile_and_step():
    kernels = []
    for name in all_workload_names():
        spec = get_workload(name)
        policy = ThresholdPolicy(spec.default_threshold)
        programs = spec.build_programs(8, region_scale=0.2, reps=4)
        machine = _Run(Simulator(programs, MachineConfig(num_cores=8)),
                       SimulationOptions(scheme="none"))
        for core, program in enumerate(programs):
            compiled = compile_program(program, policy).program
            for run in (program, compiled):
                step_every_kernel(run)
                step_every_kernel(run, machine.interpreters[core].timing)
                kernels += run.kernels
    return kernels


kernels = build_compile_and_step()
shapes = shape_count()
plain = {k.shape.with_assoc((False,) * k.shape.store_count) for k in kernels}
untimed = [s for s, timed in generated if not timed]
timed = [s for s, is_timed in generated if is_timed]
assert 0 < shapes <= 64, (shapes, len(kernels))
assert 0 < len(untimed) <= len(plain) <= 64, (len(untimed), len(plain))
assert 0 < len(timed) <= len(plain), (len(timed), len(plain))
assert len(set(timed)) == len(timed), "a shape's timed stepper was regenerated"
assert all(s.assoc_count == 0 for s in timed)
steppers = len(generated)
assert len(build_compile_and_step()) == len(kernels)
assert shape_count() == shapes, (shapes, shape_count())
assert len(generated) == steppers, (steppers, len(generated))
print("ok:", shapes, "shapes,", len(untimed), "steppers and", len(timed),
      "timed steppers for", len(kernels), "kernels; a second pass adds none")
'''


def test_each_kernel_shape_is_prepared_once():
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=_ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok:"), proc.stdout
