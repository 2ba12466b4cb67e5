"""The library example in README.md runs and converges, and its flag defaults are the CLI's."""

import re
from pathlib import Path

from qnmlp import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_converges(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["result"].status == "converged_grad"
    assert capsys.readouterr().out.startswith("converged_grad ")


def test_common_flag_defaults_match_cli():
    text = README.read_text()
    paragraph = text[text.index("Common flags (defaults in parentheses):"):].split("\n\n", 1)[0]
    stated = dict(re.findall(r"`--([a-z0-9-]+)` \(([^)]*)\)", paragraph))
    documented = {flag.replace("-", "_"): value for flag, value in stated.items()}
    assert set(documented) == {key for key, default in cli.DEFAULTS.items() if default is not None}
    for key, value in documented.items():
        kind = cli.OPTIONS[key][0]
        assert kind(value) == cli.DEFAULTS[key], key  # as numbers where the option is numeric
