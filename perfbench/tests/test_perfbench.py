"""Self-tests of the benchmark: span arithmetic, the feeder generator, and
that a corrupted output is counted as a failed op.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import random
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import feeder  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > sweep [1, 9] > (solve [2, 5] > linear [3, 4]), solve [6, 8]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10]))
    tracer.op = "a"
    with tracer.span("op"):
        with tracer.span("sweep"):
            with tracer.span("solve"):
                with tracer.span("linear"):
                    pass
            with tracer.span("solve"):
                pass
    assert spans.self_times(tracer.spans) == [2, 3, 2, 1, 2]
    totals = spans.totals_by_name(tracer.spans, {"a"})
    assert totals == {"op": (1, 2), "sweep": (1, 3), "solve": (2, 4), "linear": (1, 1)}
    assert sum(secs for _, secs in totals.values()) == 10   # self times sum to the root span
    assert [s[spans.PARENT] for s in tracer.spans] == [None, 0, 1, 2, 1]


def test_totals_keep_only_the_requested_ops():
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 5]))
    tracer.op = "setup"
    with tracer.span("setup"):
        pass
    tracer.op = "pass"
    with tracer.span("op"):
        pass
    assert spans.totals_by_name(tracer.spans, {"pass"}) == {"op": (1, 3)}


def test_wrapper_restores_module_attributes():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = spans.Tracer()
    with spans.rebound([(module, "f", tracer.wrap("m.f", module.f))]):
        assert module.f(1) == 2
    assert module.f is original
    assert [s[spans.NAME] for s in tracer.spans] == ["m.f"]


def test_generator_is_deterministic_per_seed():
    assert feeder.generate(7) == feeder.generate(7)
    assert feeder.generate(7) != feeder.generate(8)
    spec = feeder.generate(7)
    assert len(spec.bus_ids) == feeder.N_BUSES
    assert len(spec.lots) == round(feeder.LOT_SHARE * (feeder.N_BUSES - 2))


def test_generated_feeder_is_valid_and_reference_diverges_on_the_surge_only():
    gs = harness.import_program(ROOT / "src")
    spec = feeder.generate(3)
    net, scenarios, _ = feeder.to_program_inputs(spec, gs)
    assert gs.network.validate_network(net) == []
    assert [sc.penetration for sc in scenarios] == list(feeder.RAMP)
    ref = feeder.reference(spec, gs.congestion.bin_label)
    diverged = sorted(key for key, slot in ref.items() if slot.voltages is None)
    top = len(feeder.RAMP) - 1
    assert diverged == [(top, slot) for slot in feeder.SURGE_SLOTS]


def _campus_run():
    run = harness.Run(ROOT, "campus_day", seed=1, seconds=0, trace=False)
    gs = harness.import_program(ROOT / "src")
    run.workload.setup(gs, seed=1)
    run.gs = gs
    base = next(op for op in run.workload.passes(random.Random(1))
                if op.label == "base")
    return run, base


def test_correct_output_passes_and_corrupted_output_fails():
    run, base = _campus_run()
    assert run._run_op(base, (0, 0), traced=False) > 0
    assert run.failed == 0, run.problems

    def corrupt():
        result, hists = base.run()
        slot = 36
        flipped = dict(hists[slot].branch_bins)
        branch = next(iter(flipped))
        flipped[branch] = ">150" if flipped[branch] != ">150" else "<40"
        hists[slot] = dataclasses.replace(hists[slot], branch_bins=flipped)
        return result, hists

    run._run_op(dataclasses.replace(base, run=corrupt), (0, 1), traced=False)
    assert run.failed == 1
    assert any("bin assignment differs" in p for p in run.problems)


def test_an_op_that_raises_is_counted_as_failed():
    run, base = _campus_run()

    def boom():
        raise RuntimeError("injected")

    run._run_op(dataclasses.replace(base, run=boom), (0, 0), traced=False)
    assert run.failed == 1


def test_voltage_drift_beyond_tolerance_fails_the_check():
    run, base = _campus_run()
    result, hists = base.run()
    record = result.records[10]
    nudged = dataclasses.replace(record.solution,
                                 v_mag=(record.solution.v_mag[0] + 1e-9,) + record.solution.v_mag[1:])
    records = list(result.records)
    records[10] = dataclasses.replace(record, solution=nudged)
    problems = base.check((dataclasses.replace(result, records=tuple(records)), hists))
    assert any("voltage off reference" in p for p in problems)


def test_feeder_ledger_is_compared_with_the_exact_reference():
    gs = harness.import_program(ROOT / "src")
    ramp = harness.make_workload("feeder_ramp", ROOT)
    ramp.prepare(3, gs.congestion.bin_label)
    ramp.setup(gs, 3)
    day = next(op for op in ramp.passes(random.Random(1)) if op.label.startswith("ramp0_"))
    result, hists = day.run()
    assert day.check((result, hists)) == []
    ledger = result.ledger
    shifted = dataclasses.replace(ledger, served_kwh=ledger.served_kwh - 1,
                                  unserved_kwh=ledger.unserved_kwh + 1)   # still balances
    problems = day.check((dataclasses.replace(result, ledger=shifted), hists))
    assert problems == [f"{result.scenario}: ledger differs from reference"]
