"""Seeded request lists for the three workloads.

A workload is a fixed list of CLI requests (one pass); the seed decides
which inputs go into it and in what order.  The same seed always gives the
same list.  Every request carries its expected exit code, and only inputs
whose behaviour is settled are generated: no empty ``--g-max`` boxes, no
flags that do not apply to a command, no ``--out`` and no ``--timing``.

Where a draw would change how much work a pass does, the seed picks
among inputs of matched cost, so that the time of one pass depends on the
program and not on the seed.
"""

from __future__ import annotations

import random

from oracle import Request

#: The box each verify suite checks when --g-max is not given.
VERIFY_DEFAULT_G_MAX = {"L3.1": 6, "L3.2": 6, "L3.3": 8, "L3.4": 8, "C5.3-increment": 6, "L5.5": 8, "C5.6": 7}

#: The golden invocations of the CLI tests, with their exit codes.
GOLDEN = [
    Request(("plan", "--fixed", "1", "--varying", "3", "--json"), "plan", 0,
            {"flavor": "symplectic", "fixed": [1], "varying": [3]}),
    Request(("plan", "--varying", "2,2", "--json"), "plan", 0,
            {"flavor": "symplectic", "fixed": [], "varying": [2, 2]}),
    Request(("plan", "--unitary", "2,3", "--elliptic", "1", "--json"), "plan", 0,
            {"flavor": "unitary", "p": 2, "q": 3, "elliptic": 1}),
    Request(("plan", "--varying", "1,3"), "usage_error", 1),
    Request(("plan", "--unitary", "1,2", "--elliptic", "1"), "usage_error", 1),
    Request(("strata", "--varying", "2,3", "--json"), "strata", 0,
            {"flavor": "symplectic", "fixed": [], "varying": [2, 3]}),
    Request(("strata", "--unitary", "3,1", "--json"), "strata", 0, {"flavor": "unitary", "p": 3, "q": 1}),
    Request(("gamma", "--g", "4", "--json"), "gamma", 0, {"g": 4}),
    Request(("verify", "L5.5", "--g-max", "5", "--json"), "verify", 0, {"lemma": "L5.5", "g_max": 5}),
    Request(("verify", "L3.3", "--g-max", "4", "--json"), "verify", 2, {"lemma": "L3.3", "g_max": 4}),
    Request(("kodaira", "--genus", "5", "--require-feasible", "--json"), "kodaira", 3, {"genus": 5}),
    Request(("no-such-command",), "usage_error", 1),
]

#: Block-size multisets for plan-large, grouped into tiers of matched
#: completion-search cost.  Every multiset has 4-7 parts of mostly
#: distinct sizes and total g from 15 to 27.  The tiers sample the heavy
#: tail of such specs at fixed points: on a 2-vCPU sandbox (min of 5)
#: their ``gamma_gamma_codim`` calls take about 0.03, 0.14, 0.28, 0.62 and
#: 1.5 s, and each tier lies within about 10% of its centre, so the draw
#: barely moves the cost of a pass.
PLAN_TIERS = [
    [(8, 3, 3, 1, 1), (7, 6, 2, 2), (5, 4, 4, 1, 1, 1), (8, 4, 2, 1, 1), (7, 5, 2, 1, 1)],
    [(8, 7, 3, 1, 1), (7, 4, 2, 2, 1, 1, 1), (8, 7, 4, 2), (6, 5, 4, 4, 1), (8, 8, 7, 1),
     (8, 5, 3, 2, 1), (7, 7, 6, 1, 1), (8, 6, 6, 2), (8, 5, 5, 4)],
    [(6, 5, 5, 4, 2), (6, 5, 3, 3, 1, 1, 1), (7, 6, 4, 3, 1), (8, 6, 3, 2, 2), (8, 5, 4, 3, 1),
     (5, 4, 4, 3, 2, 1, 1), (8, 7, 5, 1, 1, 1), (8, 7, 6, 1, 1, 1)],
    [(7, 5, 5, 2, 1, 1, 1), (7, 7, 4, 3, 1, 1), (8, 7, 5, 3, 1), (8, 7, 6, 2, 2), (7, 6, 4, 2, 2, 1),
     (8, 7, 3, 2, 2, 1), (7, 7, 4, 2, 1, 1, 1), (8, 8, 6, 2, 1)],
    [(6, 5, 5, 4, 3, 2), (8, 7, 5, 3, 2), (7, 6, 3, 3, 2, 1, 1), (8, 5, 4, 4, 1, 1, 1), (8, 6, 6, 3, 1, 1)],
]
#: Draws per tier.  Five from the second tier put the median request of a
#: pass inside one group of like requests, and four from the fourth do the
#: same for the tail (the 11th slowest of three passes).
PLAN_DRAWS = (2, 5, 2, 4, 1)


def _dims(values) -> str:
    return ",".join(str(v) for v in values)


def _plan(fixed: list[int], varying: list[int], *, json_out: bool = True, feasible_flag: bool = False) -> Request:
    argv = ["plan"]
    if fixed:
        argv += ["--fixed", _dims(fixed)]
    argv += ["--varying", _dims(varying)]
    if feasible_flag:
        argv.append("--require-feasible")
    params = {"flavor": "symplectic", "fixed": fixed, "varying": varying}
    if json_out:
        return Request(tuple(argv + ["--json"]), "plan", 0, params)
    return Request(tuple(argv), "plan_text", 0, params)


def _verify(lemma: str, g_max: int, rng: random.Random) -> Request:
    argv = ["verify", lemma]
    # The default box is reached both with and without the flag.
    if g_max != VERIFY_DEFAULT_G_MAX[lemma] or rng.random() < 0.5:
        argv += ["--g-max", str(g_max)]
    expect = 2 if lemma in ("L3.3", "L3.4") and g_max >= 2 else 0
    return Request(tuple(argv + ["--json"]), "verify", expect, {"lemma": lemma, "g_max": g_max})


def cli_small(rng: random.Random) -> list[Request]:
    """Cheap requests on all six subcommands, golden calls and error exits."""
    reqs = list(GOLDEN)
    for i in range(3):
        varying = [rng.randint(2, 4) for _ in range(rng.randint(1, 2))]
        fixed = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
        reqs.append(_plan(fixed, varying, json_out=i != 0, feasible_flag=rng.random() < 0.3))
    for _ in range(2):
        p, q = rng.choice([(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 1), (3, 4)])
        r = rng.randint(0, 2)
        argv = ("plan", "--unitary", f"{p},{q}", "--elliptic", str(r), "--json")
        reqs.append(Request(argv, "plan", 0, {"flavor": "unitary", "p": p, "q": q, "elliptic": r}))
    varying = sorted(rng.randint(2, 6) for _ in range(rng.randint(1, 3)))
    reqs.append(Request(("strata", "--varying", _dims(varying), "--json"), "strata", 0,
                        {"flavor": "symplectic", "fixed": [], "varying": varying}))
    varying = [rng.randint(3, 6) for _ in range(rng.randint(1, 2))]
    fixed = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
    reqs.append(Request(("strata", "--fixed", _dims(fixed), "--varying", _dims(varying), "--json"), "strata", 0,
                        {"flavor": "symplectic", "fixed": fixed, "varying": varying}))
    for p, q in (rng.choice([(2, 2), (3, 3)]), (rng.randint(1, 5), rng.randint(1, 5))):
        code = 2 if (p, q) in ((2, 2), (3, 3)) else 0
        reqs.append(Request(("strata", "--unitary", f"{p},{q}", "--json"), "strata", code,
                            {"flavor": "unitary", "p": p, "q": q}))
    for g in rng.sample(range(2, 7), 2):
        reqs.append(Request(("gamma", "--g", str(g), "--json"), "gamma", 0, {"g": g}))
    boxes = {"L3.1": (2, 5), "L3.2": (2, 3), "L3.3": (2, 6), "L3.4": (2, 5),
             "C5.3-increment": (2, 5), "L5.5": (2, 5), "C5.6": (2, 6)}
    for lemma in rng.sample(sorted(boxes), 4):
        reqs.append(_verify(lemma, rng.randint(*boxes[lemma]), rng))
    for genus in rng.sample(range(3, 10), 2):
        strict = rng.random() < 0.5
        argv = ("kodaira", "--genus", str(genus)) + (("--require-feasible",) if strict else ()) + ("--json",)
        code = 3 if strict and genus not in (3, 4) else 0
        reqs.append(Request(argv, "kodaira", code, {"genus": genus}))
    ranks = [rng.randint(2, 4) for _ in range(rng.randint(1, 2))]
    g = sum(ranks) + rng.randint(0, 3)
    reqs.append(Request(("realize", "--varying", _dims(ranks), "--g", str(g), "--json"), "realize", 0,
                        {"flavor": "symplectic", "ranks": ranks, "g": g}))
    p, q = rng.choice([(1, 3), (2, 2), (2, 3), (3, 1), (3, 3)])
    g = p + q + rng.randint(1, 3)
    reqs.append(Request(("realize", "--unitary", f"{p},{q}", "--g", str(g), "--json"), "realize", 0,
                        {"flavor": "unitary", "p": p, "q": q, "g": g}))
    # documented usage errors (exit 1)
    reqs.append(Request(("plan", "--varying", f"{rng.randint(0, 1)},{rng.randint(2, 5)}"), "usage_error", 1))
    ranks = [rng.randint(2, 5) for _ in range(2)]
    reqs.append(Request(("realize", "--varying", _dims(ranks), "--g", str(sum(ranks) - 1)), "usage_error", 1))
    reqs.append(Request(("strata", "--varying", f"2,{rng.choice('xyz')}"), "usage_error", 1))
    rng.shuffle(reqs)
    return reqs


def plan_large(rng: random.Random) -> list[Request]:
    """Large symplectic plan/realize specs plus gamma on g = 9..14."""
    reqs = []
    for tier, draws in zip(PLAN_TIERS, PLAN_DRAWS):
        for sizes in rng.sample(tier, draws):
            parts = list(sizes)
            rng.shuffle(parts)
            big = [s for s in parts if s >= 2]
            if 1 in parts and rng.random() < 0.4:
                # realize pads the target ranks with elliptic factors
                argv = ("realize", "--varying", _dims(big), "--g", str(sum(parts)), "--json")
                reqs.append(Request(argv, "realize", 0, {"flavor": "symplectic", "ranks": big, "g": sum(parts)}))
                continue
            varying = [s for s in big if rng.random() < 0.6] or [rng.choice(big)]
            fixed = list(parts)
            for s in varying:
                fixed.remove(s)
            reqs.append(_plan(fixed, varying, feasible_flag=rng.random() < 0.3))
    for g in range(9, 15):
        reqs.append(Request(("gamma", "--g", str(g), "--json"), "gamma", 0, {"g": g}))
    rng.shuffle(reqs)
    return reqs


def verify_sweep(rng: random.Random) -> list[Request]:
    """The seven verify suites plus gamma at g = 7 or 8.

    L5.5 takes g_max 7 or 8 and gamma takes the other value: the pair
    sweep (g <= 7) and the g = 8 matrix-type enumeration then run once per
    pass whichever way the seed falls, so the pass cost does not depend on
    the draw.  L3.2 runs at its default box (4,620 shapes, 1.7 MB of JSON)
    three times and every cheap suite twice, so that the median and tail
    latencies each fall inside a group of like requests.
    """
    l55 = rng.choice([7, 8])
    reqs = [
        _verify("L5.5", l55, rng),
        Request(("gamma", "--g", str(15 - l55), "--json"), "gamma", 0, {"g": 15 - l55}),
    ]
    reqs += [_verify("L3.2", 6, rng) for _ in range(3)]
    cheap = {"L3.1": (4, 6), "L3.3": (3, 8), "L3.4": (3, 8), "C5.3-increment": (4, 6), "C5.6": (6, 9)}
    for lemma, box in cheap.items():
        reqs += [_verify(lemma, g, rng) for g in rng.sample(range(box[0], box[1] + 1), 2)]
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    "cli-small": cli_small,
    "plan-large": plan_large,
    "verify-sweep": verify_sweep,
}


def requests_for(workload: str, seed: int) -> list[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
