"""Smoke test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 -m pytest -q perfbench/test_smoke.py

Builds tiny versions of both sweeps and of the CLI round trip, records their
reference verdicts on the spot, and checks that a run reports exactly the
metrics BENCHMARK.json lists, that a flipped reference verdict is counted as
a failed operation rather than crashing the run, and that the tracer counts the seed commit's
eigensolves: 5 on 3 distinct matrices per complex trial (C twice, W once,
S twice) and 2 on 2 per real trial.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracing import Tracer, eig_backends, layer_metrics, public_functions  # noqa: E402
from workloads import Grid, OneOff, record_solve_certify, record_sweep  # noqa: E402

TINY = {
    "complex": Grid("complex", (6, 9), 0.1, 4.0, 3, 2, passes=2, max_iters=2000),
    "real": Grid("real", (6, 9), 0.5, 3.0, 3, 1, passes=2),
    "one_off": OneOff(10, (0.5, 1.0), calls=2),
}


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    out = tmp_path_factory.mktemp("record")
    refs = {}
    for key, spec in TINY.items():
        record = record_sweep if isinstance(spec, Grid) else record_solve_certify
        refs[key] = {"0": record(spec, 0, out / key)}
    return refs


def make_run(tmp_path, key, references, pool=False, one_off=None):
    """A run of zero seconds, so each of its phases does exactly one operation."""
    one_off_ref = references["one_off"] if one_off else None
    return run.Run(TINY[key], references[key], pool, one_off, one_off_ref, 0, 0.0,
                   tmp_path / key)


def test_every_metric_is_reported_with_its_unit(tmp_path, references):
    end_to_end = run.declared_metrics(False)
    per_layer = run.declared_metrics(True)
    assert all(end_to_end.values()) and all(per_layer.values())
    layers = {}
    for key, pool, one_off in (("complex", True, None), ("real", False, TINY["one_off"])):
        r = make_run(tmp_path, key, references, pool, one_off)
        assert set(r.end_to_end()) == set(end_to_end)
        layers[key] = r.per_layer(threads=1)
        assert set(layers[key]) == set(per_layer)
        assert r.tally.failed == 0, r.tally.notes
        assert layers[key]["error_rate"] == 0
    assert layers["complex"]["experiment.pool_start_s"] > 0
    assert layers["complex"]["experiment.scaling_eff"] > 0
    # Two reps per cell: a pool of two or more runs two trials side by side.
    assert layers["complex"]["experiment.threads_per_core"] == min(run.nproc(), 2) / run.nproc()
    assert layers["complex"]["serialize.instance_mb"] == 0
    assert layers["real"]["solver.solve_s"] == 0
    assert layers["real"]["serialize.instance_mb"] > 0
    assert layers["real"]["solve_s_p50"] > 0


def flip_first(entries):
    entry = dict(entries[0])
    entry["verdicts"] = f"{int(entry['verdicts'], 16) ^ 1:0{len(entry['verdicts'])}x}"
    return [entry] + entries[1:]


@pytest.mark.parametrize("key", ["complex", "real"])
def test_flipped_sweep_verdict_is_a_failed_trial(tmp_path, references, key):
    flipped = {**references, key: {"0": flip_first(references[key]["0"])}}
    r = make_run(tmp_path, key, flipped)
    r.end_to_end()
    assert r.tally.failed == 1, r.tally.notes


def test_flipped_round_trip_verdict_is_a_failed_call(tmp_path, references):
    flipped = {**references, "one_off": {"0": flip_first(references["one_off"]["0"])}}
    r = make_run(tmp_path, "real", flipped, one_off=TINY["one_off"])
    r.per_layer(threads=1)
    assert r.tally.failed == 1, r.tally.notes


def test_eigensolves_per_trial_at_the_seed_commit():
    from phasesync import experiment

    with Tracer().install(public_functions() | eig_backends()) as tracer:
        experiment.run_trial(12, 0.3, 5)
    complex_trial = layer_metrics(tracer)
    with Tracer().install(public_functions() | eig_backends()) as tracer:
        experiment.run_real_trial(12, 0.5, 5)
    real_trial = layer_metrics(tracer)

    assert complex_trial["solver.escapes_per_trial"] == 0
    assert complex_trial["hermitian.eig_calls_per_trial"] == 5
    assert complex_trial["hermitian.eig_distinct_per_trial"] == 3
    assert complex_trial["hermitian.eig_dense_calls"] == 5
    assert real_trial["hermitian.eig_calls_per_trial"] == 2
    assert real_trial["hermitian.eig_distinct_per_trial"] == 2
    names = [s[0] for s in tracer.spans]
    assert "z2.real_certificate" in names and "model.is_discordant" in names


def test_tracer_restores_every_patched_function():
    from phasesync import cli, experiment, hermitian, serialize, solver

    before = (hermitian.extreme_eigs, solver.extreme_eigs, experiment.run_trial,
              cli.write_instance)
    with Tracer().install(public_functions() | eig_backends()):
        assert solver.extreme_eigs is not before[1]
        assert solver.extreme_eigs is hermitian.extreme_eigs
        assert cli.write_instance is serialize.write_instance is not before[3]
    assert (hermitian.extreme_eigs, solver.extreme_eigs, experiment.run_trial,
            cli.write_instance) == before


def test_committed_references_match_the_workload_inputs():
    specs = {ref: grid for grid, ref, _, _ in run.WORKLOADS.values()}
    specs["solve_certify"] = run.SOLVE_CERTIFY
    for ref_name, spec in specs.items():
        slots = run.load_reference(ref_name, spec)
        assert sorted(slots, key=int) == [str(s) for s in range(run.SEED_SLOTS)]
        count = spec.passes if isinstance(spec, Grid) else spec.calls
        assert all(len(entries) == count for entries in slots.values())
