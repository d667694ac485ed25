"""The argparse parser is configuration: ``cli.main`` builds it once per
process, on its first call, and reuses it."""

import pytest

from groupaut import cli


def test_parser_is_built_once_and_answers_are_identical(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    outputs = []
    for _ in range(2):
        assert cli.main(["member", "Q", "1/2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert built == [1]
    assert outputs[0] == outputs[1] == '{"member":true,"witness":["1/2"]}\n'


def test_reused_parser_keeps_options_per_call(capsys, monkeypatch):
    # a flag given to one call must not leak into the next one
    monkeypatch.setattr(cli, "_PARSER", None)
    assert cli.main(["--pretty", "divisible", "Q"]) == 0
    pretty = capsys.readouterr().out
    assert cli.main(["divisible", "Q"]) == 0
    compact = capsys.readouterr().out
    assert pretty == '{\n  "divisible": true\n}\n'
    assert compact == '{"divisible":true}\n'
    assert cli.main(["cross-check", "Z", "--height", "1"]) == 0
    low = capsys.readouterr().out
    assert cli.main(["cross-check", "Z"]) == 0
    default = capsys.readouterr().out
    assert '"height":1' in low and '"height":3' in default


def test_json_is_not_an_option(capsys, monkeypatch):
    # output is compact JSON unless --pretty asks for indentation
    monkeypatch.setattr(cli, "_PARSER", None)
    with pytest.raises(SystemExit) as info:
        cli.main(["--json", "aut", "Q"])
    captured = capsys.readouterr()
    assert info.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: groupaut [-h] [--pretty]")
    assert "unrecognized arguments: --json" in captured.err
