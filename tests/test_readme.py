"""The README's examples: its `>>>` sessions and its `$ burnside ...` runs."""

import doctest
import re
from pathlib import Path

from burnside.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def shell_examples():
    """(command, expected output) for each `$ ` line of the README's plain
    code blocks; the output runs to the next blank line, command or fence."""
    # the text between fences alternates: prose, opening fence's language,
    # block, closing fence's (empty) language, prose, ...
    parts = re.split(r"^```(\w*)\n", README, flags=re.M)
    examples = []
    for language, block in zip(parts[1::4], parts[2::4]):
        if language:
            continue
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, rest = chunk.partition("\n")
            examples.append((command, rest.split("\n\n")[0].rstrip("\n") + "\n"))
    return examples


def test_readme_doctests():
    # a closing fence right under an output would be read as part of it
    text = re.sub(r"^```$", "", README, flags=re.M)
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md", None, 0)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)
    assert result.attempted == 14


def test_readme_cli_examples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = 0
    for command, expected in shell_examples():
        program, *argv = command.split()
        if program == "cat":
            (tmp_path / argv[0]).write_text(expected, encoding="utf-8")
            continue
        assert program == "burnside", command
        assert main(argv) == 0, command
        out = capsys.readouterr().out
        # a line of `...` stands for lines the README leaves out
        at = 0
        for fragment in expected.split("...\n"):
            found = out.find(fragment, at)
            assert found >= 0 and (at > 0 or found == 0), (command, fragment, out)
            at = found + len(fragment)
        assert at == len(out), (command, out)
        runs += 1
    assert runs == 9
