"""Golden tests of the `gwa-skew` command line: exact stdout bytes and exit codes.

Every subcommand has at least one fixed invocation whose output is pinned
byte for byte, since the CLI promises deterministic JSON.  The error cases
pin the exit-1 (verification failure) and exit-2 (malformed input) payloads.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import pytest

from gwa_skew import cli

# A weight-1 derivation of the disc at q = 2: d(h) = x, d(y) = -2.
D = (
    '{"mu":"2","on_h":{"terms":[{"deg":1,"poly":["1"]}]},"on_x":{"terms":[]},'
    '"on_y":{"terms":[{"deg":0,"poly":["-2"]}]},"verified":true}'
)
# The inner derivation d_x = x sigma_2(.) - (.) x of the disc at q = 2.
INNER = (
    '{"mu":"2","on_h":{"terms":[{"deg":1,"poly":["0","1"]}]},"on_x":{"terms":[{"deg":2,"poly":["-1/2"]}]},'
    '"on_y":{"terms":[{"deg":0,"poly":["1","-3"]}]},"verified":true}'
)
# A coarseness-2 derivation with d(x) = x^2, whose values on y land on a non-unit.
SIGMA_Q = (
    '{"mu":"2","on_h":{"terms":[{"deg":1,"poly":["3/2","-2"]}]},"on_x":{"terms":[{"deg":2,"poly":["1"]}]},'
    '"on_y":{"terms":[{"deg":0,"poly":["-5","6"]}]},"verified":true}'
)
Y = '{"terms":[{"deg":-1,"poly":["1"]}]}'
CERT = '{"entries":[{"index":1,"pairs":[{"a":{"terms":[{"deg":0,"poly":["-1/2"]}]},"b":' + Y + "}]}]}"
BAD_CERT = '{"entries":[{"index":1,"pairs":[{"a":{"terms":[{"deg":0,"poly":["-1"]}]},"b":' + Y + "}]}]}"
DISC2 = ["--q=2", "--input=-"]

# (subcommand, further argv, stdin, exit code, stdout)
GOLDEN = [
    (
        "mul",
        ["--q=1/2", '--lhs={"terms":[{"deg":1,"poly":["1"]}]}', '--rhs={"terms":[{"deg":-1,"poly":["0","1"]}]}'],
        "",
        0,
        '{"terms":[{"deg":0,"poly":["0","1/2","-1/4"]}]}\n',
    ),
    (
        "mul",
        [
            "--algebra=custom",
            '--algebra-json={"a":["1","1"],"label":"custom","phi":{"u":"1","v":"-1"}}',
            '--lhs={"terms":[{"deg":1,"poly":["0","1"]}]}',
            '--rhs={"terms":[{"deg":-1,"poly":["1"]}]}',
        ],
        "",
        0,
        '{"terms":[{"deg":0,"poly":["0","0","1"]}]}\n',
    ),
    ("lemma52", ["--q=-3/2", "--n=2"], "", 0, '{"ok":true}\n'),
    ("check-derivation", DISC2, D, 0, '{"verified":true}\n'),
    (
        "check-derivation",
        DISC2,
        '{"mu":"2","on_h":{"terms":[{"deg":1,"poly":["1"]}]},"on_x":{"terms":[]},"on_y":{"terms":[]}}',
        1,
        '{"verified":false,"violation":{"relation":"xy","residual":{"terms":[{"deg":1,"poly":["2"]}]}}}\n',
    ),
    ("build-derivation", DISC2, '{"alphas":[{"on_h":["1"],"weight":1}],"mu":"2"}', 0, D + "\n"),
    (
        "build-derivation",
        DISC2,
        '{"alphas":[{"on_h":["1"],"weight":1}],"mu":"3"}',
        1,
        '{"error":{"detail":"alpha_1 fails alpha o phi = mu * phi o alpha (on_h = 1)","kind":"condition"}}\n',
    ),
    ("build-sigma-q", DISC2, '{"alpha":[{"m":0,"n":2,"value":"1"}],"f":["1"]}', 0, SIGMA_Q + "\n"),
    (
        "classify",
        ["--mode=positive", *DISC2],
        D,
        0,
        '{"alphas":[{"on_h":["1"],"weight":1}],"b":[],"c":[],"mu":"2"}\n',
    ),
    ("classify", ["--mode=sigma-q", *DISC2], D, 0, '{"M":0,"N":0,"alpha":[],"f":["-2"],"g":[]}\n'),
    (
        "classify",
        ["--mode=positive", *DISC2],
        SIGMA_Q,
        1,
        '{"error":{"detail":"d(x) = (1)*x^2 is nonzero","kind":"not-of-this-form"}}\n',
    ),
    ("q-check", DISC2, D, 0, '{"Q":"1/2","is_q_derivation":true}\n'),
    ("degree-profile", ["--w=0", "--k=1", *DISC2], D, 0, '{"degree":1}\n'),
    ("inner-witness", ["--degree-bound=1", "--poly-bound=0", *DISC2], INNER, 0, '{"witness":{"terms":[{"deg":1,"poly":["1"]}]}}\n'),
    ("inner-witness", ["--degree-bound=1", "--poly-bound=1", *DISC2], D, 0, '{"witness":null}\n'),
    ("ortho-build", DISC2, '{"b_list":[' + Y + '],"derivations":[' + D + "]}", 0, CERT + "\n"),
    (
        "ortho-build",
        DISC2,
        '{"b_list":[' + Y + '],"derivations":[' + SIGMA_Q + "]}",
        1,
        '{"error":{"detail":"landed polynomials are not coprime (gcd = -5/6 + h)","gcd":["-5/6","1"],"kind":"certificate"}}\n',
    ),
    ("ortho-verify", DISC2, '{"certificate":' + CERT + ',"derivations":[' + D + "]}", 0, '{"ok":true}\n'),
    (
        "ortho-verify",
        DISC2,
        '{"certificate":' + BAD_CERT + ',"derivations":[' + D + "]}",
        1,
        '{"failure":{"i":1,"k":1,"residual":{"terms":[{"deg":0,"poly":["1"]}]}},"ok":false}\n',
    ),
    # malformed input: exit 2 with a schema error on stdout
    (
        "check-derivation",
        ["--input=-"],
        D,
        2,
        '{"error":{"detail":"--q is required for the disc/plane presets","kind":"schema"}}\n',
    ),
    (
        "check-derivation",
        ["--algebra=custom", "--input=-"],
        D,
        2,
        '{"error":{"detail":"custom algebras are passed via --algebra-json","kind":"schema"}}\n',
    ),
    (
        "check-derivation",
        DISC2,
        "{not json",
        2,
        '{"error":{"detail":"invalid JSON: Expecting property name enclosed in double quotes: '
        'line 1 column 2 (char 1)","kind":"schema"}}\n',
    ),
    (
        "check-derivation",
        ["--q=2", "--input=no-such-dir/doc.json"],
        "",
        2,
        '{"error":{"detail":"cannot read \'no-such-dir/doc.json\': [Errno 2] No such file or directory: '
        '\'no-such-dir/doc.json\'","kind":"schema"}}\n',
    ),
    (
        "degree-profile",
        ["--w=2", "--k=1", *DISC2],
        D,
        2,
        '{"error":{"detail":"central element is not homogeneous for w != 0","kind":"schema"}}\n',
    ),
    (
        "ortho-verify",
        DISC2,
        "{}",
        2,
        '{"error":{"detail":"expected a document with a derivations array","kind":"schema"}}\n',
    ),
    # appended after the malformed inputs so that earlier case ids keep their index
    (
        "classify",
        ["--mode=sigma-q", *DISC2],
        SIGMA_Q,
        0,
        '{"M":1,"N":2,"alpha":[{"m":0,"n":2,"value":"1"}],"f":["1"],"g":[]}\n',
    ),
    ("lemma52", ["--q=1", "--n=1"], "", 2, '{"error":{"detail":"q must avoid {0, 1, -1}","kind":"schema"}}\n'),
    # a custom document whose data are disc(2) is disc(2): same bytes as --q=2
    (
        "build-sigma-q",
        ['--algebra-json={"label":"custom","a":["1","-1"],"phi":{"u":"2","v":"0"}}', "--input=-"],
        '{"alpha":[{"m":0,"n":2,"value":"1"}],"f":["1"]}',
        0,
        SIGMA_Q + "\n",
    ),
    (
        "build-sigma-q",
        ['--algebra-json={"label":"custom","a":["1","0","1"],"phi":{"u":"2","v":"0"}}', "--input=-"],
        '{"alpha":[{"m":0,"n":2,"value":"1"}],"f":["1"]}',
        2,
        '{"error":{"detail":"operation is specific to the disc/plane presets","kind":"invalid-input"}}\n',
    ),
    ("lemma52", ["--q=2", "--n=0"], "", 2, '{"error":{"detail":"--n must be >= 1","kind":"schema"}}\n'),
    (
        "ortho-build",
        DISC2,
        '{"derivations":[' + D + "]}",
        2,
        '{"error":{"detail":"expected a b_list array of designated generators","kind":"schema"}}\n',
    ),
    (
        "ortho-verify",
        DISC2,
        '{"derivations":[' + D + "]}",
        2,
        '{"error":{"detail":"expected a certificate field","kind":"schema"}}\n',
    ),
]


def call(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def subcommands() -> list[str]:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


@pytest.mark.parametrize(
    "command, argv, stdin, code, stdout",
    GOLDEN,
    ids=[f"{i}-{case[0]}-exit{case[3]}" for i, case in enumerate(GOLDEN)],
)
def test_golden_output(monkeypatch, capsys, command, argv, stdin, code, stdout):
    assert call(monkeypatch, capsys, [command, *argv], stdin) == (code, stdout, "")
    json.loads(stdout)


def test_every_subcommand_has_a_golden_success():
    succeeding = {command for command, _, _, code, _ in GOLDEN if code == 0}
    missing = sorted(set(subcommands()) - succeeding)
    assert missing == [], f"subcommands without a pinned exit-0 case in test_cli.py: {missing}"


def test_argparse_error_exits_2_with_usage_on_stderr(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = call(monkeypatch, capsys, ["classify", "--q=2", "--mode=bogus"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: gwa-skew classify [-h]")
    assert "gwa-skew classify: error: argument --mode: invalid choice: 'bogus'" in err


def test_missing_subcommand_exits_2(monkeypatch, capsys):
    code, out, err = call(monkeypatch, capsys, [])
    assert (code, out) == (2, "")
    assert "error:" in err


@pytest.mark.parametrize("command", [None, *subcommands()])
def test_help_exits_0(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    code, out, err = call(monkeypatch, capsys, argv)
    assert (code, err) == (0, "")
    prog = "gwa-skew" if command is None else f"gwa-skew {command}"
    assert out.startswith(f"usage: {prog} [-h]")


def test_top_level_help_lists_every_subcommand(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    _, out, _ = call(monkeypatch, capsys, ["--help"])
    for command in subcommands():
        assert f"    {command}" in out


def test_parse_error_leaves_no_state_for_the_next_call(monkeypatch, capsys):
    good = (["ortho-build", *DISC2], '{"b_list":[' + Y + '],"derivations":[' + D + "]}")
    alone = call(monkeypatch, capsys, *good)
    assert alone == (0, CERT + "\n", "")
    assert call(monkeypatch, capsys, ["ortho-build", "--q=2", "--bogus"])[0] == 2
    assert call(monkeypatch, capsys, ["classify", "--q=2", "--mode=bogus"])[0] == 2
    custom = [
        "mul",
        "--algebra=custom",
        '--algebra-json={"a":["1","1"],"label":"custom","phi":{"u":"1","v":"-1"}}',
        '--lhs={"terms":[{"deg":0,"poly":["1"]}]}',
        '--rhs={"terms":[{"deg":0,"poly":["1"]}]}',
    ]
    assert call(monkeypatch, capsys, custom)[0] == 0
    assert call(monkeypatch, capsys, *good) == alone
