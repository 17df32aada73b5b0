"""Golden bytes of the command line.

A fixed set of commands runs through ``main``; each output, and each file
that ``braid --dot`` / ``--matrix`` writes, must equal the text below byte
for byte once its timing values are masked as ``T``.  The records cover the
human, ``--json`` and ``--csv`` forms of every computing command.
"""

import itertools
import json
import random
import re

import pytest

from cubemorse.cli import EXIT_OK, main

SQUARES = "2 2\n0 0\n1 1\n"
# The closure of the anchors of C(4; 3), in lexicographic order, that
# random.Random(1) keeps with probability 0.5: 34 top cubes, 538 cells,
# reduced in two rounds to [10, 2] cells.
_rng = random.Random(1)
RAND = "3 4\n" + "".join(
    f"{a} {b} {c}\n" for a, b, c in itertools.product(range(4), repeat=3) if _rng.random() < 0.5
)


def _mask(text: str) -> str:
    """``text`` with the timing of a JSON, human or CSV record set to ``T``."""
    text = re.sub(r'"timing_ms": [^\n]*', '"timing_ms": T', text)
    text = re.sub(r", [0-9.e+-]+ ms$", ", T ms", text, flags=re.M)
    return re.sub(r",[0-9.e+-]+\r$", ",T\r", text, flags=re.M)


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """Run ``main`` in a directory holding ``squares.txt`` and ``rand.txt``; return the
    masked stdout, after checking exit 0 and an empty stderr."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "squares.txt").write_text(SQUARES)
    (tmp_path / "rand.txt").write_text(RAND)

    def go(argv: list[str]) -> str:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_OK, "")
        return _mask(captured.out)

    return go


# command -> (human, --json, --csv)
RECORDS = {
    "sphere --kind s --dim 2": (
        "sphere kind=s dim=2: 26 cells, betti [1, 0, 1], 1 round(s), T ms\n",
        """\
{
  "betti": [
    1,
    0,
    1
  ],
  "cell_count": 26,
  "command": {
    "cmd": "sphere",
    "dim": 2,
    "kind": "s"
  },
  "conley": null,
  "rounds": 1,
  "timing_ms": T
}
""",
        'betti,cell_count,command,conley,rounds,timing_ms\r\n"[1, 0, 1]",26,"{""cmd"": ""sphere"", ""dim"": 2, ""kind"": ""s""}",null,1,T\r\n',
    ),
    "sphere --kind stop --dim 1": (
        "sphere kind=stop dim=1: 48 cells, betti [1, 1, 0], 1 round(s), T ms\n",
        """\
{
  "betti": [
    1,
    1,
    0
  ],
  "cell_count": 48,
  "command": {
    "cmd": "sphere",
    "dim": 1,
    "kind": "stop"
  },
  "conley": null,
  "rounds": 1,
  "timing_ms": T
}
""",
        'betti,cell_count,command,conley,rounds,timing_ms\r\n"[1, 1, 0]",48,"{""cmd"": ""sphere"", ""dim"": 1, ""kind"": ""stop""}",null,1,T\r\n',
    ),
    "cubical squares.txt": (
        "cubical squares.txt: 17 cells, betti [1, 0, 0], 1 round(s), T ms\n",
        """\
{
  "betti": [
    1,
    0,
    0
  ],
  "cell_count": 17,
  "command": {
    "cmd": "cubical",
    "file": "squares.txt"
  },
  "conley": null,
  "rounds": 1,
  "timing_ms": T
}
""",
        'betti,cell_count,command,conley,rounds,timing_ms\r\n"[1, 0, 0]",17,"{""cmd"": ""cubical"", ""file"": ""squares.txt""}",null,1,T\r\n',
    ),
    "cubical rand.txt": (
        "cubical rand.txt: 538 cells, betti [1, 1, 0, 0], 2 round(s), T ms\n",
        """\
{
  "betti": [
    1,
    1,
    0,
    0
  ],
  "cell_count": 538,
  "command": {
    "cmd": "cubical",
    "file": "rand.txt"
  },
  "conley": null,
  "rounds": 2,
  "timing_ms": T
}
""",
        'betti,cell_count,command,conley,rounds,timing_ms\r\n"[1, 1, 0, 0]",538,"{""cmd"": ""cubical"", ""file"": ""rand.txt""}",null,2,T\r\n',
    ),
    "braid --nfold 1": (
        "braid nfold=1: 121 cells, 13 classes, first round 7 cells, connection matrix 3 cells, tower 2, T ms\n",
        """\
{
  "betti": null,
  "cell_count": 121,
  "command": {
    "cmd": "braid",
    "nfold": 1
  },
  "conley": {
    "boundary": [
      [
        24,
        61,
        1
      ],
      [
        120,
        61,
        1
      ]
    ],
    "cells": [
      [
        0,
        0,
        1
      ],
      [
        7,
        1,
        1
      ],
      [
        12,
        0,
        1
      ]
    ],
    "conley_cells": 3,
    "first_round_cells": 7,
    "scc_count": 13,
    "tower_height": 2
  },
  "rounds": null,
  "timing_ms": T
}
""",
        'betti,cell_count,command,conley,rounds,timing_ms\r\nnull,121,"{""cmd"": ""braid"", ""nfold"": 1}","{""boundary"": [[24, 61, 1], [120, 61, 1]], ""cells"": [[0, 0, 1], [7, 1, 1], [12, 0, 1]], ""conley_cells"": 3, ""first_round_cells"": 7, ""scc_count"": 13, ""tower_height"": 2}",null,T\r\n',
    ),
    "braid --torus 5": (
        "braid torus=5: 6561 cells, 30 classes, first round 65 cells, connection matrix 5 cells, tower 2, T ms\n",
        """\
{
  "betti": null,
  "cell_count": 6561,
  "command": {
    "cmd": "braid",
    "torus": 5
  },
  "conley": {
    "boundary": [
      [
        1640,
        1663,
        1
      ],
      [
        6560,
        1663,
        1
      ],
      [
        3188,
        3189,
        1
      ]
    ],
    "cells": [
      [
        0,
        0,
        1
      ],
      [
        3,
        1,
        1
      ],
      [
        3,
        2,
        1
      ],
      [
        8,
        3,
        1
      ],
      [
        29,
        0,
        1
      ]
    ],
    "conley_cells": 5,
    "first_round_cells": 65,
    "scc_count": 30,
    "tower_height": 2
  },
  "rounds": null,
  "timing_ms": T
}
""",
        'betti,cell_count,command,conley,rounds,timing_ms\r\nnull,6561,"{""cmd"": ""braid"", ""torus"": 5}","{""boundary"": [[1640, 1663, 1], [6560, 1663, 1], [3188, 3189, 1]], ""cells"": [[0, 0, 1], [3, 1, 1], [3, 2, 1], [8, 3, 1], [29, 0, 1]], ""conley_cells"": 5, ""first_round_cells"": 65, ""scc_count"": 30, ""tower_height"": 2}",null,T\r\n',
    ),
}


@pytest.mark.parametrize("form", [0, 1, 2], ids=["human", "json", "csv"])
@pytest.mark.parametrize("command", list(RECORDS))
def test_record_bytes(run, command, form):
    flags = [[], ["--json"], ["--csv"]][form]
    assert run(command.split() + flags) == RECORDS[command][form]


NFOLD1_DOT = """\
digraph condensation {
  n0 [label="0\\ntops=1\\ncross=0..0"];
  n1 [label="1\\ntops=4\\ncross=2..4"];
  n2 [label="2\\ntops=1\\ncross=6..6"];
  n3 [label="3\\ntops=1\\ncross=8..8"];
  n4 [label="4\\ntops=1\\ncross=2..2"];
  n5 [label="5\\ntops=4\\ncross=4..6"];
  n6 [label="6\\ntops=4\\ncross=4..6"];
  n7 [label="7\\ntops=1\\ncross=4..4"];
  n8 [label="8\\ntops=4\\ncross=2..4"];
  n9 [label="9\\ntops=1\\ncross=2..2"];
  n10 [label="10\\ntops=1\\ncross=8..8"];
  n11 [label="11\\ntops=1\\ncross=6..6"];
  n12 [label="12\\ntops=1\\ncross=0..0"];
  n1 -> n0;
  n1 -> n4;
  n2 -> n1;
  n2 -> n5;
  n3 -> n2;
  n3 -> n5;
  n4 -> n0;
  n5 -> n1;
  n5 -> n7;
  n5 -> n8;
  n5 -> n9;
  n6 -> n1;
  n6 -> n4;
  n6 -> n7;
  n6 -> n8;
  n7 -> n1;
  n7 -> n8;
  n8 -> n9;
  n8 -> n12;
  n9 -> n12;
  n10 -> n6;
  n10 -> n11;
  n11 -> n6;
  n11 -> n8;
}
"""

NFOLD1_MATRIX = """\
{
  "boundary": [
    [
      24,
      61
    ],
    [
      120,
      61
    ]
  ],
  "cells": [
    {
      "dim": 0,
      "grade": 0,
      "id": 24
    },
    {
      "dim": 1,
      "grade": 7,
      "id": 61
    },
    {
      "dim": 0,
      "grade": 12,
      "id": 120
    }
  ],
  "poset_edges": [
    [
      0,
      7
    ],
    [
      12,
      7
    ]
  ]
}
"""

TORUS5_MATRIX = """\
{
  "boundary": [
    [
      1640,
      1663
    ],
    [
      6560,
      1663
    ],
    [
      3188,
      3189
    ]
  ],
  "cells": [
    {
      "dim": 0,
      "grade": 0,
      "id": 1640
    },
    {
      "dim": 1,
      "grade": 3,
      "id": 1663
    },
    {
      "dim": 2,
      "grade": 3,
      "id": 3188
    },
    {
      "dim": 3,
      "grade": 8,
      "id": 3189
    },
    {
      "dim": 0,
      "grade": 29,
      "id": 6560
    }
  ],
  "poset_edges": [
    [
      0,
      3
    ],
    [
      0,
      8
    ],
    [
      3,
      8
    ],
    [
      29,
      3
    ],
    [
      29,
      8
    ]
  ]
}
"""


@pytest.mark.parametrize(
    "command, dot, matrix",
    [("braid --nfold 1", NFOLD1_DOT, NFOLD1_MATRIX), ("braid --torus 5", None, TORUS5_MATRIX)],
)
def test_braid_artifact_bytes(run, tmp_path, command, dot, matrix):
    out = run(command.split() + ["--dot", "poset.dot", "--matrix", "matrix.json"])
    assert out == RECORDS[command][0]
    if dot is not None:
        assert (tmp_path / "poset.dot").read_text() == dot
    assert (tmp_path / "matrix.json").read_text() == matrix


@pytest.mark.parametrize(
    "command, expected",
    [
        (
            "verify --gen sphere:2 --acyclic --stable",
            "complex: ok: 26 cells checked\n"
            "matching: ok: 26 cells: 2 fixed, 12+12 paired\n"
            "acyclic: ok\n"
            "stable: ok\n",
        ),
        (
            "verify squares.txt",
            "complex: ok: 17 cells checked\n"
            "matching: ok: 17 cells: 1 fixed, 8+8 paired\n",
        ),
    ],
)
def test_verify_bytes(run, command, expected):
    assert run(command.split()) == expected


def test_bench_bytes(run):
    data = json.loads(run(["bench", "--repeat", "2", "--json", "braid", "--nfold", "1"]))
    assert sorted(data) == ["command", "mean_ms", "repeat", "runs_ms", "std_ms"]
    assert (data["command"], data["repeat"], len(data["runs_ms"])) == (["braid", "--nfold", "1"], 2, 2)
    human = run(["bench", "--repeat", "2", "sphere", "--kind", "s", "--dim", "2"])
    assert re.sub(r"[0-9]+\.[0-9]{3}", "T", human) == (
        "bench sphere --kind s --dim 2: mean T ms, std T ms over 2 run(s)\n"
    )
