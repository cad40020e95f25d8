"""Module sizes that the import peak depends on.

Without a bytecode cache every import compiles the package from source, and
CPython 3.11's parser peak rises by about 0.25 MB once one module passes
4,096 tokens. Every module under that line stays under it.
"""

import tokenize
from pathlib import Path

import closurelab

PARSER_TOKEN_LINE = 4096


def parser_tokens(path: Path) -> int:
    """Tokens the parser reads: all but comments and non-logical newlines."""
    with path.open(encoding="utf-8") as fh:
        return sum(
            1
            for tok in tokenize.generate_tokens(fh.readline)
            if tok.type not in (tokenize.COMMENT, tokenize.NL)
        )


def test_modules_stay_under_the_parser_token_line():
    sizes = {p.name: parser_tokens(p) for p in Path(closurelab.__file__).parent.glob("*.py")}
    assert "actions.py" in sizes
    over = {name: n for name, n in sizes.items() if n >= PARSER_TOKEN_LINE}
    assert not over, over
