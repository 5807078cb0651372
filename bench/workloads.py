"""Workload definitions: fixed lists of soficlab CLI commands.

Each command names the stage category it is timed under, the file it
produces (its ``-o`` output, or its stdout when it has none) and how that
product is checked against the outcomes recorded in ``expected.json``:

- ``exact``: sha256 of the bytes.  Used for everything on the permutation
  side, whose defects and separations are exact rationals.
- ``unitary``: parsed JSON, floats compared within 1e-9 (see outcomes.py).
- ``amplify-law``: the ``demo amplify`` report must satisfy its own law,
  |d_predicted - d_measured| <= 1e-9 for every pair.

Only ``demo amplify`` reads the workload seed; every other command is
deterministic and ignores it.

``tiny=True`` gives the same command shapes at sizes that run in a few
seconds; the self-test and the warm-up use them.
"""

import json
from dataclasses import dataclass

CATEGORIES = ("certify", "verify", "convert", "check")

_CATEGORY = {
    "certify": "certify",
    "verify": "verify",
    "to-unitary": "convert",
    "amplify": "convert",
    "graph": "convert",
    "match-fraction": "check",
    "paradox": "check",
    "folner": "check",
    "demo": "check",
}

WORKLOADS = ("free-lef", "amenable-folner", "unitary-amplify")

SEED_TOKEN = "<seed>"


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # arguments after the program name; may hold SEED_TOKEN
    check: str  # "exact" | "unitary" | "amplify-law"

    @property
    def category(self) -> str:
        return _CATEGORY[self.argv[0]]

    @property
    def product(self) -> str | None:
        """The output file the command writes, or None when it writes stdout."""
        if "-o" in self.argv:
            return self.argv[self.argv.index("-o") + 1]
        return None

    def resolved(self, seed: int) -> list[str]:
        return [str(seed) if a == SEED_TOKEN else a for a in self.argv]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _cmd(text: str, check: str = "exact") -> Command:
    return Command(tuple(text.split()), check)


def _free_lef(tiny: bool) -> list[Command]:
    certs = ("free_r1.json", "free_r2.json", "sl2_r3.json")
    cmds = [
        _cmd("certify --family free --radius 1 -o free_r1.json"),
        _cmd("certify --family free --radius 2 -o free_r2.json"),
        _cmd(f"certify --family finite --table {_sl2_name(tiny)} --radius 3 -o sl2_r3.json"),
    ]
    cmds += [_cmd(f"verify {name} --eps 1e-9 --delta 1") for name in certs]
    cmds += [
        _cmd("graph free_r2.json -o free_r2_graph.json"),
        _cmd("match-fraction free_r2_graph.json --family free --radius 2"),
        _cmd(f"paradox --radius {4 if tiny else 10}"),
        _cmd(f"paradox --radius {3 if tiny else 7} --spread 2"),
    ]
    return cmds


def _amenable_folner(tiny: bool) -> list[Command]:
    # (family, folner side, radius); the second certificate is expected to
    # fail verification (exit 1) at both sizes.
    certs = [("heisenberg", 7, 2), ("heisenberg", 3, 3), ("z2", 8, 2)] if tiny else [
        ("heisenberg", 12, 2), ("heisenberg", 8, 3), ("z2", 60, 4)]
    names = [f"{fam}_L{side}_r{r}.json" for fam, side, r in certs]
    cmds = [
        _cmd(f"certify --family {fam} --folner {side} --radius {r} -o {name}")
        for (fam, side, r), name in zip(certs, names)
    ]
    cmds += [_cmd(f"verify {name} --eps 0.5 --delta 0.5") for name in names]
    graph = names[0].replace(".json", "_graph.json")
    cmds += [
        _cmd(f"graph {names[0]} -o {graph}"),
        _cmd(f"match-fraction {graph} --family heisenberg --radius {certs[0][2]}"),
        _cmd(f"folner --family heisenberg -L {5 if tiny else 16}"),
    ]
    return cmds


def _unitary_amplify(tiny: bool) -> list[Command]:
    side, radius, rank, pairs = (8, 2, 4, 5) if tiny else (16, 6, 16, 40)
    return [
        _cmd(f"certify --family z --folner {side} --radius {radius} -o z.json"),
        _cmd("to-unitary z.json -o z_unitary.json", "unitary"),
        _cmd("verify z_unitary.json --eps 1e-6 --delta 1.4", "unitary"),
        _cmd("amplify z_unitary.json --times 1 -o z_amplified.json", "unitary"),
        _cmd("verify z_amplified.json --eps 1e-6 --delta 1.4", "unitary"),
        Command(("demo", "amplify", "--rank", str(rank), "--pairs", str(pairs),
                 "--seed", SEED_TOKEN), "amplify-law"),
    ]


def _sl2_prime(tiny: bool) -> int:
    # SL(2, Z_7), order 336: big enough for table validation to show, small
    # enough to repeat within a run (order 1320 takes ~20 s to validate).
    return 5 if tiny else 7


def _sl2_name(tiny: bool) -> str:
    return f"sl2_z{_sl2_prime(tiny)}.json"


def sl2_table(p: int) -> dict:
    """SL(2, Z_p) as a `--family finite --table` document: elements in
    lexicographic entry order, generated by A = [[1,2],[0,1]] and
    B = [[1,0],[2,1]] (the free-group witnesses of soficlab.sl2)."""
    elements = [((a, b), (c, d)) for a in range(p) for b in range(p)
                for c in range(p) for d in range(p) if (a * d - b * c) % p == 1]
    index = {m: i for i, m in enumerate(elements)}

    def mul(x, y):
        (a, b), (c, d) = x
        (e, f), (g, h) = y
        return (((a * e + b * g) % p, (a * f + b * h) % p),
                ((c * e + d * g) % p, (c * f + d * h) % p))

    return {
        "order": len(elements),
        "table": [[index[mul(x, y)] for y in elements] for x in elements],
        "identity": index[((1, 0), (0, 1))],
        "generators": [index[((1, 2 % p), (0, 1))], index[((1, 0), (2 % p, 1))]],
    }


def inputs(workload: str, tiny: bool = False) -> dict[str, str]:
    """Input files the workload's commands read, by file name.  They do not
    depend on the seed."""
    if workload == "free-lef":
        return {_sl2_name(tiny): json.dumps(sl2_table(_sl2_prime(tiny)))}
    return {}


_COMMAND_LISTS = {
    "free-lef": _free_lef,
    "amenable-folner": _amenable_folner,
    "unitary-amplify": _unitary_amplify,
}


def commands(workload: str, tiny: bool = False) -> list[Command]:
    if workload not in _COMMAND_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _COMMAND_LISTS[workload](tiny)


def expected_key(workload: str, tiny: bool) -> str:
    return f"{workload}/tiny" if tiny else workload
