"""The four workloads: what one op runs and what its correct output is.

Each workload is built from a seed into a ``Workload``: ``argv(i)`` is the
``knowhow`` command line of op ``i`` and ``verify(i, code, out)`` returns
``None`` when that op's exit code and printed output match the reference,
or a reason otherwise.  References never come from ``evaluate`` or
``witness``: ``check`` and ``horizon`` use the naive oracle (see
``oracle.py``), ``fuzz`` the suites' own counts, and ``prove`` answers known
by construction.
"""
from __future__ import annotations

import functools
import hashlib
import json
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen

ROOT = Path(__file__).resolve().parent.parent
ORACLE = Path(__file__).resolve().parent / "oracle.py"
ORACLE_TIMEOUT_S = 150

# Traced functions each workload must reach, and those it must never reach.
# A prefix ending in "." stands for every traced function of that module.
DRIVES = {
    "fuzz": ("cli.main", "harness.soundness_suite", "harness.check_instance",
             "harness.lemma_suite", "harness.gen_system", "checker.evaluate",
             "proofkit.match_axiom", "system.histories_of_length"),
    "check": ("cli.main", "formula.parse", "system.load_system",
              "system.check_regular", "system.parse_history",
              "system.histories_of_length", "checker.evaluate",
              "checker.witness"),
    "prove": ("cli.main", "formula.parse", "proofkit.parse_derivation",
              "proofkit.verify", "proofkit.is_tautology", "proofkit.match_axiom"),
}
DRIVES["horizon"] = DRIVES["check"]
BYPASSES = {
    "fuzz": ("checker.witness", "system.load_system", "system.parse_history",
             "formula.parse", "proofkit.parse_derivation", "proofkit.verify",
             "proofkit.is_tautology"),
    "check": ("checker.evaluate_naive", "harness.", "proofkit."),
    "prove": ("checker.", "system.", "harness."),
}
BYPASSES["horizon"] = BYPASSES["check"]


@dataclass
class Workload:
    name: str
    size: int  # distinct inputs, 0 when every op has its own (fuzz)
    argv: Callable[[int], list[str]]
    verify: Callable[[int, int, str], str | None]
    h_goal: Callable[[int], bool] = lambda i: False
    info: dict = field(default_factory=dict)


# --- fuzz ----------------------------------------------------------------------

# One system at the default five instances: 45 soundness instances per
# lemma_suite system, against 90 at the CLI defaults (ten systems, lemmas on
# five), so an op is short enough for about 50 in a run.
FUZZ_SYSTEMS, FUZZ_INSTANCES = 1, 5


def fuzz(seed: int, workdir: Path, scale: float) -> Workload:
    """Op ``i``: ``knowhow fuzz --json`` on its own seed, default generator."""

    def op_seed(i: int) -> int:
        return gen.rng_for("fuzz", seed, i).randrange(2**31)

    def argv(i: int) -> list[str]:
        return ["fuzz", "--json", "--seed", str(op_seed(i)),
                "--systems", str(FUZZ_SYSTEMS), "--instances", str(FUZZ_INSTANCES)]

    def verify(i: int, code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        report = json.loads(out)
        sound, lemmas = report["soundness"], report["lemmas"]
        want = {"seed": op_seed(i), "systems": FUZZ_SYSTEMS,
                "instances": FUZZ_SYSTEMS * 9 * FUZZ_INSTANCES, "violations": []}
        got = {key: sound[key] for key in want}
        if got != want:
            return f"soundness report {got}, expected {want}"
        if lemmas["systems"] != max(1, FUZZ_SYSTEMS // 2) or lemmas["failures"]:
            return f"lemma report {lemmas}"
        return None

    return Workload("fuzz", 0, argv, verify)


def _shuffled_cycle(size: int, *key) -> Callable[[int], int]:
    """Op index -> input index: passes over the inputs in one seeded order.

    A run that ends within a pass has run a random sample of that pass, so
    the order in which inputs were generated biases no metric.
    """
    order = list(range(size))
    gen.rng_for("order", *key).shuffle(order)
    return lambda i: order[i % size]


# --- check and horizon ---------------------------------------------------------

def check_inputs(seed: int, scale: float) -> tuple[list[dict], list[dict]]:
    """Cold ``knowhow check`` queries with nonempty coalitions, modal nesting 2.

    Random regular systems (4 states, 2 agents, 2 choices, branching 1.2),
    histories of length 3; of every 5 goals, 3 are a top-level ``H``, one a
    ``K`` and one a negated ``K`` or ``H``.
    """
    rng = gen.rng_for("check", seed)
    models, queries = [], []
    for m in range(max(1, round(32 * scale))):
        # every pair of block counts, in the same proportions for every seed
        model = gen.gen_model(rng, 4, 2, 2, 1.2, block_counts=(1 + m % 4, 1 + m // 4 % 4))
        models.append(model)
        for k in range(5):
            agents = model["agents"]
            goal = ("HHHK"[k] if k < 4 else rng.choice("KH"),
                    gen.coalition(rng, agents), gen.modal(rng, agents, 1))
            if k == 4:
                goal = ("not", goal)
            queries.append({"model": m, "history": gen.random_history(rng, model, 3),
                            "formula": gen.fmt(goal), "horizon": None,
                            "h_goal": goal[0] == "H"})
    return models, queries


# (history length, goal modality, body has know-how); N follows from them
_CONTINGENT = ((0, "K", False), (0, "K", True), (0, "H", False), (1, "K", False))
_VALID_N3 = ((0, "K", True), (1, "K", False), (0, "H", False))
_VALID_N4 = (1, "H", False)


def horizon_inputs(seed: int, scale: float) -> tuple[list[dict], list[dict]]:
    """``knowhow check --horizon N`` on empty-coalition goals.

    Small deterministic systems (4 states, 2 agents, 2 choices), anchors of
    length 0 or 1, ``K{}``/``H{}`` over bodies with nonempty-coalition
    modalities, 3 of every 10 goals negated, N = history length + h_depth + 2.
    Each system gets five goals in fixed strata, so every seed has the same
    mix of costs: one random body with N <= 3 (usually refuted at a low
    level), three instances of valid schemas with N = 3, one per plan in
    ``_VALID_N3``, and one with N = 4.  A valid body is never refuted, so
    those goals enumerate every level up to N; the N = 4 fifth holds the
    90th percentile and the N = 3 plans the median.  N stops at 4: one
    level more multiplies the level size by four and the oracle's time by
    about sixteen (see README).

    One more goal, ``K{} (x -> x)`` at an anchor of length 5 and N = 7, is
    op 0 of every run.  It holds 4^8 histories in its last level and sets
    the run's peak memory, which the other goals leave near the idle
    interpreter's.  Its propositional body keeps the class tables small, so
    the levels are most of that memory and its cost is about the same in
    every system.

    The answers for valid bodies are known by construction (true, or false
    when negated, and bounded either way); the random ones go to the oracle.
    """
    rng = gen.rng_for("horizon", seed)
    models, queries = [], []
    for m in range(max(1, round(64 * scale))):
        model = gen.gen_model(rng, 4, 2, 2, 1.0)
        models.append(model)
        agents = model["agents"]
        plans = [_CONTINGENT[m % 4], *_VALID_N3, _VALID_N4]
        for k, (length, kind, know_how) in enumerate(plans):
            if k == 0:
                body = (rng.choice("KH") if know_how else "K",
                        gen.coalition(rng, agents), gen.literal(rng))
            else:
                body = gen.valid_body(rng, agents, know_how, m + k)
            goal = (kind, (), body)
            negated = (3 * m + k) % 10 < 3
            if negated:
                goal = ("not", goal)
            expect = None if k == 0 else {
                "value": not negated, "bounded": True, "counterexample": None,
                "witnesses": ["(empty profile)"] if goal[0] == "H" else None}
            queries.append({"model": m, "history": gen.random_history(rng, model, length),
                            "formula": gen.fmt(goal),
                            "horizon": length + gen.h_depth(goal) + 2,
                            "h_goal": goal[0] == "H", "expect": expect})
    x, m = gen.literal(rng), rng.randrange(len(models))
    queries.append({"model": m, "history": gen.random_history(rng, models[m], 5),
                    "formula": gen.fmt(("K", (), ("imp", x, x))), "horizon": 7,
                    "h_goal": False, "first": True,
                    "expect": {"value": True, "bounded": True,
                               "counterexample": None, "witnesses": None}})
    return models, queries


def round_trip(model: dict, text: str) -> None:
    """Raise unless ``load_system(text)`` is exactly ``model``."""
    from knowhow.system import load_system

    ets = load_system(text)
    got = {
        "agents": set(ets.agents), "states": set(ets.states),
        "choices": set(ets.choices),
        "blocks": {a: set(blocks) for a, blocks in ets.indist.items()},
        "valuation": ets.valuation,
        "trans": {(w1, p.votes, w2) for w1, p, w2 in ets.mechanism},
    }
    want = {
        "agents": set(model["agents"]), "states": set(model["states"]),
        "choices": set(model["choices"]),
        "blocks": {a: {frozenset(b) for b in blocks}
                   for a, blocks in model["blocks"].items()},
        "valuation": {p: frozenset(ws) for p, ws in model["valuation"].items() if ws},
        "trans": set(model["trans"]),
    }
    for key in want:
        if got[key] != want[key]:
            raise RuntimeError(f"model round trip changed {key}: {got[key]} != {want[key]}")


def references(name: str, seed: int, texts: list[str], queries: list[dict]) -> list[dict]:
    """Oracle answers for ``queries``, from the store or a fresh oracle run.

    The store is keyed by workload, seed and a hash of the generated inputs,
    the oracle script and the program's source, and is rebuilt when any of
    them changes.
    """
    spec = {"models": texts,
            "queries": [{k: q[k] for k in ("model", "history", "formula", "horizon")}
                        for q in queries]}
    digest = hashlib.sha256(json.dumps(spec, sort_keys=True).encode())
    for path in [ORACLE, *sorted((ROOT / "src" / "knowhow").glob("*.py"))]:
        digest.update(path.read_bytes())
    key = digest.hexdigest()
    store = ROOT / ".perfbench" / "refs" / f"{name}-{seed}.json"
    if store.is_file():
        saved = json.loads(store.read_text())
        if saved.get("key") == key:
            return saved["answers"]
    store.parent.mkdir(parents=True, exist_ok=True)
    src, dst = store.with_suffix(".in.json"), store.with_suffix(".out.json")
    src.write_text(json.dumps(spec))
    try:
        subprocess.run([sys.executable, str(ORACLE), str(src), str(dst)],
                       cwd=ROOT, check=True, timeout=ORACLE_TIMEOUT_S)
        answers = json.loads(dst.read_text())
    finally:
        src.unlink(missing_ok=True)
        dst.unlink(missing_ok=True)
    store.write_text(json.dumps({"key": key, "answers": answers}))
    return answers


def _fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def verify_query(ref: dict, h_goal: bool, code: int, out: str) -> str | None:
    """Compare one ``knowhow check`` answer with its reference."""
    if code != (0 if ref["value"] else 1):
        return f"exit code {code} for verdict {ref['value']}"
    got = _fields(out)
    want = {"verdict": str(ref["value"])}
    if ref["bounded"] is not None:
        want["bounded"] = "yes" if ref["bounded"] else "no"
    if ref["counterexample"] is not None:
        want["counterexample"] = ref["counterexample"]
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: {got.get(key)!r}, expected {value!r}"
    if ("counterexample" in got) != ("counterexample" in want):
        return f"unexpected counterexample {got['counterexample']!r}"
    if ("witness" in got) != h_goal:
        return "witness line missing" if h_goal else "unexpected witness line"
    if h_goal:
        printed = got["witness"]
        if ref["witnesses"]:
            if printed not in ref["witnesses"]:
                return f"witness {printed!r} fails the replayed know-how clause"
        elif printed != "none":
            return f"witness {printed!r} for a false know-how goal"
    return None


def _query_workload(name, inputs, seed: int, workdir: Path, scale: float) -> Workload:
    models, queries = inputs(seed, scale)
    texts = [gen.model_text(model) for model in models]
    paths = []
    for m, (model, text) in enumerate(zip(models, texts)):
        round_trip(model, text)
        path = workdir / f"m{m}.ets"
        path.write_text(text)
        paths.append(str(path))
    answers = iter(references(name, seed, texts,
                              [q for q in queries if q.get("expect") is None]))
    refs = [q.get("expect") or next(answers) for q in queries]
    first = [j for j, q in enumerate(queries) if q.get("first")]
    rest = [j for j, q in enumerate(queries) if not q.get("first")]
    cycle = _shuffled_cycle(len(rest), name, seed)

    def pick(i: int) -> int:
        return first[i] if i < len(first) else rest[cycle(i - len(first))]

    def argv(i: int) -> list[str]:
        q = queries[pick(i)]
        args = ["check", "--system", paths[q["model"]], "--history", q["history"],
                "--formula", q["formula"]]
        if q["horizon"] is not None:
            args += ["--horizon", str(q["horizon"])]
        return args

    def verify(i: int, code: int, out: str) -> str | None:
        j = pick(i)
        return verify_query(refs[j], queries[j]["h_goal"], code, out)

    return Workload(name, len(queries), argv, verify,
                    h_goal=lambda i: queries[pick(i)]["h_goal"],
                    info={"refs": refs})


# --- prove ---------------------------------------------------------------------

_STATED_FAILURE = re.compile(r"fail at line (\d+)")


def prove(seed: int, workdir: Path, scale: float) -> Workload:
    """``knowhow prove FILE`` over a fixed mix of derivations.

    The bundled corpus (a file stating "fail at line N" must be rejected
    there), H and K superdistributivity with 2-10 premises, single
    tautology lines over 8-14 opaque modal subformulas, and corrupted
    copies of generated derivations with a known failing line.
    """
    rng = gen.rng_for("prove", seed)
    files: list[tuple[str, str, int | None]] = []  # (name, text, failing line)
    corpus = sorted((ROOT / "src" / "knowhow" / "data" / "proofs").glob("*.proof"))
    if not corpus:
        raise RuntimeError("no bundled proof corpus")
    for path in corpus:
        text = path.read_text()
        stated = _STATED_FAILURE.search(text)
        files.append((path.name, text, int(stated.group(1)) if stated else None))
    generated = []
    top = max(2, round(10 * scale))
    for n in range(2, top + 1):
        for strategic in (True, False):
            generated.append(gen.superdistributivity(rng, n, strategic))
    for k in range(8, max(8, round(14 * scale)) + 1):
        generated.append(gen.syllogism(rng, k))
    files += [(f"gen{i}.proof", gen.proof_text(d), None) for i, d in enumerate(generated)]
    sources = generated[:-3] or generated  # the three largest tautology lines stay intact
    broken_count = max(1, round(8 * scale))
    for i in range(broken_count):
        # spread evenly over the sources, so every seed breaks the same sizes
        source = sources[i * len(sources) // broken_count]
        broken, line = gen.corrupt(rng, source)
        files.append((f"bad{i}.proof", gen.proof_text(broken), line))
    paths = []
    for name, text, _ in files:
        path = workdir / name
        path.write_text(text)
        paths.append(str(path))
    expected = [line for _, _, line in files]
    pick = _shuffled_cycle(len(files), "prove", seed)

    def verify(i: int, code: int, out: str) -> str | None:
        line = expected[pick(i)]
        first = out.splitlines()[0] if out else ""
        if line is None:
            return None if code == 0 and first == "ok" else f"rejected: {first!r}"
        if code != 1 or not first.startswith(f"line {line}: "):
            return f"got {first!r} (exit {code}), expected a failure at line {line}"
        return None

    return Workload("prove", len(files), lambda i: ["prove", paths[pick(i)]],
                    verify, info={"expected": expected})


WORKLOADS = {
    "fuzz": fuzz,
    "check": functools.partial(_query_workload, "check", check_inputs),
    "horizon": functools.partial(_query_workload, "horizon", horizon_inputs),
    "prove": prove,
}
