"""The four workloads.  Each stresses a different layer of the pipeline.

cli_walkthrough  the README commands, each a fresh process: interpreter
                 start-up and import dominate, so only here does CLI and
                 import work show.
hardy_search     find_hardy and the table and model built from its
                 result: the quantum layer does almost all the work.
eval_reuse       many random formulas per model: the formula and
                 semantics layers do the work, and a per-model cache
                 would pay off.
audit_churn      a fresh model per op through check_theorem and audit:
                 nothing is reused across models, so per-model set-up
                 costs show and a cache cannot hide them.

A workload generates its inputs from the seed when it is built, before
any clock runs, and computes its expected results with `reference`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import inputs as gen
from . import reference as ref
from .measure import Raised

CLI_COMMANDS = (
    "find",
    "verify",
    "model_build",
    "check_theorem",
    "eval_strict",
    "eval_cf_at",
    "audit",
    "audit_json",
    "sr_table",
    "missing_model",
)
IMPORT_MODULES = ("formula", "worlds", "quantum", "semantics", "proof", "cli")

# per-layer metrics a workload may add to the span summary; a workload
# that does not exercise a layer reports 0 for it
EXTRA_METRICS = {
    "quantum.c4_gap": "1",
    "worlds.possible.mean": "count",
    "formula.nodes.mean": "count",
    "formula.parse.nodes_per_s": "1/s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.import_us.{m}": "us" for m in IMPORT_MODULES},
    **{f"cli.main.{c}.p50_ms": "ms" for c in CLI_COMMANDS},
    **{f"cli.proc.{c}.p50_ms": "ms" for c in CLI_COMMANDS},
    "cli.startup_share": "1",
}


def _world_tuple(w):
    return None if w is None else (w.choice_l, w.choice_r, w.outcome_l, w.outcome_r)


class Workload:
    name = ""
    why = ""
    in_children = False  # peak RSS of child processes rather than of this one

    def properties(self) -> dict:
        """Input digest and exact input counts, printed with every run."""
        raise NotImplementedError

    def setup(self, L) -> None:
        """Program-facing set-up, through the layers `L`; runs on every set-up repetition."""

    def after_traced_pass(self, run) -> None:
        """Extra traced measurements, off the pass clock."""

    def layer_extras(self, run, summary: dict) -> dict:
        return {}

    def extras(self, run, summary: dict) -> dict:
        values = {name: 0.0 for name in EXTRA_METRICS}
        values.update(self.layer_extras(run, summary))
        return {name: (values[name], unit) for name, unit in EXTRA_METRICS.items()}


# ---------------------------------------------------------------------------

class HardySearch(Workload):
    name = "hardy_search"
    why = (
        "find_hardy plus table and model: the quantum layer does "
        "almost all the work, and nowhere else in-process"
    )
    ops_per_pass = 16

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.seeds = [rng.randrange(2**31) for _ in range(self.ops_per_pass)]
        self.c4_gap = 0.0
        self.possible = [0, 0]  # worlds summed over models, models

    def properties(self):
        return {"digest": gen.digest(self.seeds), "ops_per_pass": self.ops_per_pass}

    def setup(self, L):
        self.params = [L.hl.quantum.SearchParams(seed=s) for s in self.seeds]

    def inputs(self, k):
        return self.params

    def op(self, L, params):
        cfg = L.find_hardy(params)
        report = L.verify_hardy(cfg)
        table = L.export_table(cfg)
        return cfg, report, table, L.build_model(table)

    def check(self, k, i, params, result):
        if isinstance(result, Raised):
            return repr(result)
        cfg, report, table, model = result
        angles = {s: cfg.angle(s) for s in ("L1", "L2", "R1", "R2")}
        born = ref.born_table(cfg.theta, angles)
        c = [born[pair][key] for pair, key in gen.FORBIDDEN_CELLS]
        c4 = born[gen.PARADOX_CELL[0]][gen.PARADOX_CELL[1]]
        gap = abs(c4 - ref.OPTIMAL_PARADOX)
        self.c4_gap = max(self.c4_gap, gap)
        expected_possible = set(ref.possible_worlds(born))
        possible = {_world_tuple(w) for w in model.possible}
        self.possible[0] += len(possible)
        self.possible[1] += 1
        problems = []
        if gap > 1e-9:
            problems.append(f"c4 is {gap:.3e} from (5*sqrt(5)-11)/2")
        if max(c) > 1e-9:
            problems.append(f"zero cells c1..c3 = {c}")
        if not report.passed:
            problems.append("verify_hardy did not pass")
        worst = max(
            abs(table.rows[pair][key] - born[pair][key]) for pair in born for key in born[pair]
        )
        if worst > 1e-9:
            problems.append(f"exported cell differs from the Born rule by {worst:.3e}")
        if len(possible) != 13 or any(w in possible for w in ref.FORBIDDEN_WORLDS):
            problems.append(f"{len(possible)} possible worlds, forbidden ones not all excluded")
        if possible != expected_possible:
            problems.append("possible worlds differ from the Born-rule table's")
        return "; ".join(problems) or None

    def layer_extras(self, run, summary):
        return {
            "quantum.c4_gap": self.c4_gap,
            "worlds.possible.mean": self.possible[0] / self.possible[1],
        }


# ---------------------------------------------------------------------------

class EvalReuse(Workload):
    name = "eval_reuse"
    why = (
        "many random formulas reuse each of 48 models: parse and "
        "evaluation dominate, and a per-model cache would pay"
    )
    n_tables = 48
    # formulas per table by the global operators on their spine, outermost
    # first: a quarter propositional, half with one, a quarter with one
    # nested in another.  Many tables with few formulas each keep the
    # seed-to-seed spread of the mean cost near 2%; the tail percentile
    # still moves by 5-10% from seed to seed.
    strata = (
        ((), 16),
        (("cf",), 16),
        (("strict",), 16),
        (("cf", "cf"), 4),
        (("cf", "strict"), 4),
        (("strict", "cf"), 4),
        (("strict", "strict"), 4),
    )
    ops_per_pass = n_tables * sum(count for _, count in strata)

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.tables = [gen.random_table(rng) for _ in range(self.n_tables)]
        self.model_texts = [gen.model_text(t) for t in self.tables]
        self.items = []  # (table index, formula, text, earlier region, world, quantifier at world)
        self.expected = []
        for t, table in enumerate(self.tables):
            possible = ref.possible_worlds(table)
            spines = [spine for spine, count in self.strata for _ in range(count)]
            rng.shuffle(spines)
            for j, spine in enumerate(spines):
                earlier = "LR"[j % 2]
                later = gen.CHOICES_R if earlier == "L" else gen.CHOICES_L
                f = gen.shaped_formula(rng, spine, later)
                world = rng.choice(possible)
                quantifier = rng.choice(("every", "some"))
                self.items.append((t, f, gen.render(f), earlier, world, quantifier))
                every = ref.RefModel(possible, earlier, "every")
                some = ref.RefModel(possible, earlier, "some")
                at = every if quantifier == "every" else some
                self.expected.append(
                    (every.holds_globally(f), some.holds_globally(f), world in at.truth_set(f))
                )
        self.nodes = sum(gen.node_count(item[1]) for item in self.items)

    def properties(self):
        nested = sum(1 for item in self.items if gen.global_nesting(item[1]) >= 2)
        return {
            "digest": gen.digest(
                [self.model_texts, [[i[2], i[3], i[4], i[5]] for i in self.items]]
            ),
            "ops_per_pass": self.ops_per_pass,
            "models": len(self.tables),
            "formula_nodes_mean": self.nodes / len(self.items),
            "possible_worlds_mean": statistics.mean(
                len(ref.possible_worlds(t)) for t in self.tables
            ),
            "nested_global_share": nested / len(self.items),
            "earlier_R_share": sum(1 for i in self.items if i[3] == "R") / len(self.items),
        }

    def setup(self, L):
        hl = L.hl
        sem = hl.semantics
        self.models = [L.model_from_dict(text) for text in self.model_texts]
        opts = {
            (earlier, q): sem.CfOptions(order=sem.TemporalOrder(earlier), quantifier=q)
            for earlier in "LR"
            for q in ("every", "some")
        }
        self.ops = [
            (
                self.models[t],
                text,
                opts[(earlier, "every")],
                opts[(earlier, "some")],
                hl.worlds.parse_world(gen.world_text(world)),
                opts[(earlier, quantifier)],
            )
            for t, _, text, earlier, world, quantifier in self.items
        ]

    def inputs(self, k):
        return self.ops

    def op(self, L, x):
        model, text, every, some, world, at = x
        f = L.parse(text)
        return (
            L.holds_globally(model, f, every),
            L.holds_globally(model, f, some),
            L.eval_at(model, world, f, at),
        )

    def check(self, k, i, x, result):
        if isinstance(result, Raised):
            return f"{repr(result)} on {self.items[i][2]!r}"
        every, some, at = result
        got = (
            (every.holds, _world_tuple(every.witness)),
            (some.holds, _world_tuple(some.witness)),
            at,
        )
        want = self.expected[i]
        if got != want:
            _, _, text, earlier, world, quantifier = self.items[i]
            return (
                f"{text!r} ({earlier} earlier, eval_at {gen.world_text(world)} under {quantifier}):"
                f" got {got}, reference {want}"
            )
        return None

    def layer_extras(self, run, summary):
        parse = summary.get("formula.parse")
        traced_passes = parse["calls"] // self.ops_per_pass if parse else 0
        return {
            "worlds.possible.mean": statistics.mean(len(m.possible) for m in self.models),
            "formula.nodes.mean": self.nodes / len(self.items),
            "formula.parse.nodes_per_s": (
                traced_passes * self.nodes / parse["busy_s"] if traced_passes else 0.0
            ),
        }


# ---------------------------------------------------------------------------

class AuditChurn(Workload):
    name = "audit_churn"
    why = (
        "a fresh model per op through check_theorem, audit and JSON: "
        "proof and per-model set-up dominate, nothing is reused"
    )
    ops_per_pass = 128  # half of them Hardy-pattern tables

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.hardy = [True, False] * (self.ops_per_pass // 2)
        rng.shuffle(self.hardy)
        self.tables = [gen.random_table(rng, hardy_pattern=h) for h in self.hardy]
        self.expected = [ref.theorem(t) for t in self.tables]
        self.possible = [0, 0]  # worlds summed over models, models

    def properties(self):
        confirmed = sum(1 for e in self.expected if e["line5"][0] and not e["line6"][0])
        return {
            "digest": gen.digest(self.inputs(0)),
            "ops_per_pass": self.ops_per_pass,
            "hardy_pattern_share": sum(self.hardy) / len(self.hardy),
            "hardy_conforming_share": sum(1 for e in self.expected if e["hardy_conforming"])
            / len(self.tables),
            "confirmed_share": confirmed / len(self.tables),
        }

    def inputs(self, k):
        """The tables, with a threshold of its own for pass k.

        No two ops of a run then read an equal model, so a cache keyed by
        model content cannot hit, while the possible worlds -- every
        positive cell is above 1/40 -- and so the work stay the same.
        """
        epsilon = gen.EPSILON * (1 + k)
        return [gen.model_text(t, epsilon) for t in self.tables]

    def op(self, L, text):
        model = L.model_from_dict(text)
        theorem = L.check_theorem(model)
        report = L.audit(model)
        return model, theorem, report, L.report_json(report)

    def check(self, k, i, text, result):
        if isinstance(result, Raised):
            return repr(result)
        model, theorem, report, body = result
        self.possible[0] += len(model.possible)
        self.possible[1] += 1
        want = self.expected[i]
        got = {
            "hardy_conforming": theorem.hardy_conforming,
            "line5": (theorem.line5.holds, _world_tuple(theorem.line5.witness)),
            "line6": (theorem.line6.holds, _world_tuple(theorem.line6.witness)),
            "sr_true_on_all_l2_worlds": theorem.sr_true_on_all_l2_worlds,
            "sr_false_l1_witness": _world_tuple(theorem.sr_false_l1_witness),
        }
        problems = [
            f"{key}: got {got[key]}, reference {want[key]}" for key in want if got[key] != want[key]
        ]
        if report.final.line5_true != theorem.line5.holds:
            problems.append("audit line5_true disagrees with check_theorem")
        if json.loads(body)["final"]["line5_true"] != want["line5"][0]:
            problems.append("audit JSON line5_true disagrees with the reference")
        return "; ".join(problems) or None

    def layer_extras(self, run, summary):
        return {"worlds.possible.mean": self.possible[0] / self.possible[1]}


# ---------------------------------------------------------------------------

CLI_BOOT = "import sys; from hardylogic.cli import main; sys.exit(main())"


class CliWalkthrough(Workload):
    name = "cli_walkthrough"
    why = (
        "README commands as fresh processes: only here do "
        "interpreter start-up, import and the CLI show"
    )
    ops_per_pass = len(CLI_COMMANDS)
    in_children = True

    def __init__(self, seed: int, workdir: Path, src: Path):
        rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        cfg, model = "cfg.json", "model.json"
        # (command, argv, exit code, check on (stdout, stderr)), from the README
        self.commands = [
            ("find", ["hardy", "find", "--seed", str(rng.randrange(1000)), "--out", cfg], 0,
             _line_starts("configuration written to")),
            ("verify", ["hardy", "verify", cfg], 0, _line_is("overall: pass")),
            ("model_build", ["model", "build", cfg, "--out", model], 0,
             _line_starts("possible worlds: 13 of 16")),
            ("check_theorem", ["check-theorem", model], 0,
             _line_starts("dependence confirmed: yes")),
            ("eval_strict", ["eval", model, "L1 => L1"], 0, _line_is("true")),
            ("eval_cf_at", ["eval", model, "R1 []-> R1 & R1-", "--at", "L1,R2,-,+"], 1,
             _line_is("false")),
            ("audit", ["proof", "audit", model], 0,
             _line_is("final: line 5 true: True; line 6 refuted: True")),
            ("audit_json", ["proof", "audit", model, "--json"], 0, _audit_json_ok),
            ("sr_table", ["sr-table"], 0, _line_is("false rows: 1 of 16")),
            ("missing_model", ["check-theorem", "no-such-model.json"], 2, _missing_file),
        ]

    def properties(self):
        return {
            "digest": gen.digest([c[1] for c in self.commands]),
            "ops_per_pass": self.ops_per_pass,
        }

    def setup(self, L):
        self.hl = L.hl
        # one CPU for this process and the commands it starts, so that the
        # calibration runs where the commands run
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name in ("cfg.json", "model.json"):
            (self.workdir / name).unlink(missing_ok=True)

    def inputs(self, k):
        return self.commands

    def _spawn(self, argv):
        return subprocess.run(
            [sys.executable, "-c", CLI_BOOT, *argv],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def op(self, L, command):
        name, argv, _, _ = command
        done = L.call(f"cli.proc.{name}", self._spawn, argv)
        return done.returncode, done.stdout, done.stderr

    def check(self, k, i, command, result):
        if isinstance(result, Raised):
            return repr(result)
        name, argv, code, output_ok = command
        returncode, out, err = result
        problems = []
        if returncode != code:
            problems.append(f"exit {returncode}, README says {code}")
        if "Traceback" in err:
            problems.append("traceback on stderr")
        if not output_ok(out, err):
            problems.append("key output line missing")
        if problems:
            detail = "; ".join(problems)
            return f"hardylogic {' '.join(argv)}: {detail} [{err.strip()[-200:]}]"
        return None

    def after_traced_pass(self, run):
        """Each command once more through `cli.main(argv)` in this process."""
        tracer, L = run.tracer, run.traced
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            for command in self.commands:
                name, argv = command[0], command[1]
                out, err = io.StringIO(), io.StringIO()
                span = tracer.begin_op(f"op.{self.name}.in_process", run.op_ids)
                run.op_ids += 1
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = L.call(f"cli.main.{name}", self.hl.cli.main, list(argv))
                    result = (code, out.getvalue(), err.getvalue())
                except Exception as exc:  # counted as a failed op
                    result = Raised(exc)
                tracer.end_op(span, not isinstance(result, Raised))
                run.record(f"in-process {name}", self.check(0, 0, command, result))
        finally:
            os.chdir(cwd)

    def _time_process(self, args, reps: int) -> float:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *args], env=self.env, capture_output=True, check=True,
                           timeout=60)
            times.append(1000 * (time.perf_counter() - t0))
        return statistics.median(times)

    def _import_us(self, reps: int) -> dict:
        """Self import time of each package module, from `-X importtime`."""
        samples = {m: [] for m in IMPORT_MODULES}
        for _ in range(reps):
            done = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import hardylogic.cli"],
                env=self.env, capture_output=True, text=True, check=True, timeout=60,
            )
            for line in done.stderr.splitlines():
                parts = [p.strip() for p in line.split("|")]
                if len(parts) == 3 and parts[2].startswith("hardylogic."):
                    module = parts[2].removeprefix("hardylogic.")
                    if module in samples:
                        samples[module].append(float(parts[0].split(":")[1]))
        return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}

    def layer_extras(self, run, summary):
        factor = run.calibration.typical()
        floor = factor * self._time_process(["-c", "pass"], 7)
        imported = factor * self._time_process(["-c", "import hardylogic.cli"], 7)
        import_us = {m: factor * us for m, us in self._import_us(3).items()}
        main = {c: summary[f"cli.main.{c}"]["p50_ms"] for c in CLI_COMMANDS}
        proc = {c: summary[f"cli.proc.{c}"]["p50_ms"] for c in CLI_COMMANDS}
        self.split = {
            "interpreter_ms": floor, "import_ms": imported - floor, "main": main, "proc": proc,
        }
        values = {
            "cli.interpreter_ms": floor,
            "cli.import_ms": imported - floor,
            "cli.startup_share": 1 - sum(main.values()) / sum(proc.values()),
        }
        values.update({f"cli.import_us.{m}": us for m, us in import_us.items()})
        values.update({f"cli.main.{c}.p50_ms": ms for c, ms in main.items()})
        values.update({f"cli.proc.{c}.p50_ms": ms for c, ms in proc.items()})
        return values

    def split_rows(self) -> list[str]:
        """One row per command: subprocess, in-process `cli.main`, interpreter floor."""
        s = self.split
        rows = [
            f"  {'command':<14} {'process ms':>10} {'cli.main ms':>11} "
            f"{'floor ms':>9} {'import ms':>9}"
        ]
        for c in CLI_COMMANDS:
            rows.append(
                f"  {c:<14} {s['proc'][c]:>10.2f} {s['main'][c]:>11.2f} "
                f"{s['interpreter_ms']:>9.2f} {s['import_ms']:>9.2f}"
            )
        return rows


def _line_is(text):
    return lambda out, err: text in out.splitlines()


def _line_starts(prefix):
    return lambda out, err: any(line.startswith(prefix) for line in out.splitlines())


def _audit_json_ok(out, err):
    try:
        final = json.loads(out)["final"]
    except (ValueError, KeyError, TypeError):
        return False
    return final["line5_true"] is True and final["line6_refuted"] is True


def _missing_file(out, err):
    return err.startswith("error: file not found") and not out


WORKLOADS = {w.name: w for w in (CliWalkthrough, HardySearch, EvalReuse, AuditChurn)}
