"""``main`` parses with the subcommand's own parser; the whole tree must give
the same answers, help and usage errors, byte for byte."""

import sys

import pytest
from test_cli import _every_command

from semigroupoid_kit import cli
from semigroupoid_kit.serialize import dump_json


def outcome(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _complete(leaf, path: str) -> tuple[list[str], list[list[str]]]:
    """The positionals of ``leaf``, each ``path``, and the pair of each of
    its required options, with a value."""
    positionals, options = [], []
    for action in leaf._actions:
        if not action.option_strings:
            positionals.append(path)
        elif action.required:
            options.append([action.option_strings[0], "1" if action.type is int else "t"])
    return positionals, options


def requests(path: str) -> list[list[str]]:
    parser = cli.build_parser()
    out = []
    for prefix in _every_command(parser):
        positionals, options = [path], []
        if len(prefix) == 2:
            positionals, options = _complete(parser.leaves[tuple(prefix)], path)
        full = prefix + positionals + sum(options, [])
        out += [prefix, prefix + ["-h"], full, ["--"] + full, ["-h"] + full]
        for extra in (["--nosuch"], ["--format", "bogus"], ["--depth", "x"], ["-m", "x"]):
            out.append(full + extra)
        out.append(full + ["--format", "table"])
        for k in range(len(options)):  # a missing required option
            out.append(prefix + positionals + sum(options[:k] + options[k + 1 :], []))
    return out


@pytest.fixture
def fig1_file(tmp_path, fig1):
    path = tmp_path / "fig1.json"
    path.write_text(dump_json(fig1.to_json_dict()))
    return str(path)


def test_main_answers_as_the_whole_tree(capsys, fig1_file):
    argvs = requests(fig1_file)
    assert len(argvs) > 34 * 10
    codes = set()
    for argv in argvs:
        got = outcome(capsys, lambda: cli.main(argv))
        assert got == outcome(capsys, lambda: cli._run(cli._parser().parse_args(argv))), argv
        codes.add(got[0])
    assert codes == {0, 1, ("exit", 0), ("exit", 2)}


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch, fig1_file):
    for extra in (["--vertex", "t"], ["--x"]):
        argv = ["graph", "period", fig1_file] + extra
        monkeypatch.setattr(sys, "argv", ["semigroupoid-kit"] + argv)
        assert outcome(capsys, cli.main) == outcome(capsys, lambda: cli.main(argv))


def test_a_request_the_leaf_parses_whole_never_reaches_the_tree(capsys, monkeypatch, fig1_file):
    def refuse(*args, **kwargs):
        raise AssertionError("the whole tree parsed a request its leaf parses")

    monkeypatch.setattr(cli._parser(), "parse_args", refuse)
    assert cli.main(["graph", "period", fig1_file, "--vertex", "t", "--format", "table"]) == 0
    assert capsys.readouterr().out == "period(t) = 1\n"
    with pytest.raises(AssertionError):
        cli.main(["graph", "period", fig1_file, "--vertex", "t", "--nosuch"])
