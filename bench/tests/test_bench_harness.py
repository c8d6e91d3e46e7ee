"""Self-tests of the benchmark harness.

The reference evaluator must agree with the package on known models,
a wrong verdict or exit code must count as a failed op, and a seed must
always produce the same inputs.  None of these tests re-imports the
package (the benchmark's set-up does), so they can share a session with
the package's own tests.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import hardylogic as hl  # noqa: E402
from hlbench import inputs as gen  # noqa: E402
from hlbench import reference as ref  # noqa: E402
from hlbench.measure import (  # noqa: E402
    END_TO_END,
    RUN_METRICS,
    SPAN_STATS,
    Layers,
    Run,
    package_modules,
    percentile,
    tail_rung,
)
from hlbench.workloads import (  # noqa: E402
    CLI_COMMANDS,
    EXTRA_METRICS,
    WORKLOADS,
    AuditChurn,
    CliWalkthrough,
    EvalReuse,
    HardySearch,
)


def _table_dict(table):
    return {pair: dict(row) for pair, row in table.rows.items()}


@pytest.fixture(scope="module")
def known_tables():
    hardy = _table_dict(hl.export_table(hl.find_hardy()))
    control = {pair: dict(row) for pair, row in hardy.items()}
    old = control[("L1", "R1")]
    control[("L1", "R1")] = {
        "++": 0.0,
        "+-": old["++"] + old["+-"],
        "-+": 0.0,
        "--": old["-+"] + old["--"],
    }
    uniform = _table_dict(hl.ProbabilityTable.uniform())
    return {"hardy": hardy, "control": control, "uniform": uniform}


def _formulas(rng, later, n):
    spines = [(), ("cf",), ("strict",), ("cf", "strict"), ("strict", "cf"), ("strict", "strict")]
    return [gen.shaped_formula(rng, spines[i % len(spines)], later) for i in range(n)]


@pytest.mark.parametrize("name", ["hardy", "control", "uniform"])
@pytest.mark.parametrize("earlier", ["L", "R"])
def test_reference_agrees_with_package(known_tables, name, earlier):
    table = known_tables[name]
    model = hl.build_model(hl.ProbabilityTable(table))
    possible = ref.possible_worlds(table)
    assert possible == tuple(
        (w.choice_l, w.choice_r, w.outcome_l, w.outcome_r) for w in model.possible_in_order()
    )
    later = gen.CHOICES_R if earlier == "L" else gen.CHOICES_L
    rng = random.Random(f"{name}:{earlier}")
    for quantifier in ("every", "some"):
        for self_world in (True, False):
            opts = hl.CfOptions(
                order=hl.TemporalOrder(earlier),
                quantifier=quantifier,
                self_world_when_consistent=self_world,
            )
            expect = ref.RefModel(possible, earlier, quantifier, self_world)
            for f in _formulas(rng, later, 24):
                parsed = hl.parse(gen.render(f))
                got = hl.holds_globally(model, parsed, opts)
                witness = got.witness and (
                    got.witness.choice_l, got.witness.choice_r,
                    got.witness.outcome_l, got.witness.outcome_r,
                )
                assert (got.holds, witness) == expect.holds_globally(f), gen.render(f)
                truth = expect.truth_set(f)
                for w in possible:
                    value = hl.eval_at(model, hl.parse_world(gen.world_text(w)), parsed, opts)
                    assert value == (w in truth), (gen.render(f), w)


def test_reference_theorem_on_known_models(known_tables):
    hardy = ref.theorem(known_tables["hardy"])
    assert hardy["hardy_conforming"] and hardy["line5"] == (True, None)
    assert hardy["line6"][0] is False and hardy["line6"][1][0] == "L1"
    control = ref.theorem(known_tables["control"])
    assert control["line6"] == (True, None)


class SmallEvalReuse(EvalReuse):
    n_tables = 1
    ops_per_pass = sum(count for _, count in EvalReuse.strata)


def _run(workload, layers):
    run = Run(workload, seconds=0.0, trace=False)
    run.plain = layers
    return run


def test_injected_wrong_verdict_counts_as_failed_op():
    workload = SmallEvalReuse(3)
    layers = Layers(package_modules())
    workload.setup(layers)
    calls = {"holds": 0, "eval": 0}
    holds_globally, eval_at = layers.holds_globally, layers.eval_at

    def wrong_verdict(model, f, opts):
        calls["holds"] += 1
        result = holds_globally(model, f, opts)
        if calls["holds"] == 7:
            return hl.GlobalCheck(not result.holds, result.witness, result.counterexamples)
        return result

    def raises_once(model, world, f, opts):
        calls["eval"] += 1
        if calls["eval"] == 11:
            raise RuntimeError("injected")
        return eval_at(model, world, f, opts)

    layers.holds_globally, layers.eval_at = wrong_verdict, raises_once
    run = _run(workload, layers)
    run._pass(1, traced=False, timed=True)
    assert run.attempted == workload.ops_per_pass
    assert run.failed == 2
    assert any("reference" in m for m in run.mismatches)
    assert any("injected" in m for m in run.mismatches)


README_OUTPUT = {
    "find": (0, "theta = 0.1\nconfiguration written to cfg.json\n", ""),
    "verify": (0, "c1 = 0\noverall: pass\n", ""),
    "model_build": (0, "possible worlds: 13 of 16 at epsilon=1e-12\n", ""),
    "check_theorem": (0, "dependence confirmed: yes (...)\n", ""),
    "eval_strict": (0, "true\n", ""),
    "eval_cf_at": (1, "false\n", ""),
    "audit": (0, "final: line 5 true: True; line 6 refuted: True\n", ""),
    "audit_json": (0, '{"final": {"line5_true": true, "line6_refuted": true}}\n', ""),
    "sr_table": (0, "false rows: 1 of 16\n", ""),
    "missing_model": (2, "", "error: file not found: no-such-model.json\n"),
}


@pytest.mark.parametrize("wrong", ["eval_cf_at", "missing_model"])
def test_wrong_exit_code_counts_as_failed_op(tmp_path, wrong):
    workload = CliWalkthrough(1, tmp_path, BENCH.parent / "src")
    names = iter(CLI_COMMANDS)

    def fake_spawn(argv):
        name = next(names)
        code, out, err = README_OUTPUT[name]
        if name == wrong:
            code = 0
        return subprocess.CompletedProcess(argv, code, out, err)

    workload._spawn = fake_spawn
    run = _run(workload, Layers(package_modules()))
    run._pass(1, traced=False, timed=True)
    assert run.attempted == len(CLI_COMMANDS)
    assert run.failed == 1
    assert "README says" in run.mismatches[0]


def test_same_seed_gives_same_inputs(tmp_path):
    src = BENCH.parent / "src"
    makers = {
        "cli_walkthrough": lambda seed: CliWalkthrough(seed, tmp_path, src),
        "hardy_search": HardySearch,
        "eval_reuse": SmallEvalReuse,
        "audit_churn": AuditChurn,
    }
    for name, make in makers.items():
        first, again, other = (make(s).properties()["digest"] for s in (5, 5, 6))
        assert first == again, name
        assert first != other, name


def test_tail_percentile_leaves_ten_samples():
    assert tail_rung(40) == 75
    assert tail_rung(128) == 90
    assert tail_rung(3072) == 99.5
    values = sorted(float(i) for i in range(1, 101))
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    per_layer = {
        f"{name}.{stat}": unit for name in Layers.NAMES for stat, unit in SPAN_STATS.items()
    }
    per_layer.update(RUN_METRICS)
    per_layer.update(EXTRA_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
