"""Module sizes that the import peak depends on.

Without a bytecode cache every import compiles the package from source, and
CPython 3.11's parser peak rises by about 0.25 MB once one module passes
4,096 tokens. Every module under that line stays under it, and no module
keeps a private top-level name that nothing in the package uses, or an
import that it never reads. Only perm.py knows where packed images stop
being bytes, only the command line ends a budget error without raising, and
every size limit is about how the input is represented, never about work.
"""

import ast
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


def _modules():
    for path in sorted(Path(closurelab.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_names_and_uses(tree: ast.Module):
    """The private names a module defines at its top level, and every name
    it reads: loaded names, attribute names and imported names."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return set(filter(_is_private, defined)), used


def test_every_private_module_name_is_used_in_the_package():
    # a private helper that nothing calls is a leftover second copy
    defined, used = {}, set()
    for module, tree in _modules():
        private, names = _private_names_and_uses(tree)
        defined.update((name, module) for name in private)
        used |= names
    assert "_grow" in defined
    unused = {name: module for name, module in defined.items() if name not in used}
    assert not unused, unused


def test_every_imported_name_is_read():
    # an import that nothing reads is left over from a deleted call; the
    # package's __init__ imports names to re-export them
    unread = set()
    for module, tree in _modules():
        if module == "__init__":
            continue
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        unread |= {
            (name, module)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (name := (alias.asname or alias.name).split(".")[0]) not in read
        }
    assert not unread, unread


def test_private_names_cross_modules_only_where_listed():
    # state passed between modules through private names is hidden from
    # every public signature; these imports are shared helpers, not state
    imported = {
        (alias.name, module)
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if _is_private(alias.name)
    }
    assert imported == {
        ("_orbit", "actions"),
        ("_orbit", "closure"),
        ("_orbit", "lattice"),
        ("_canonical_image", "closure"),
        ("_orbitals", "closure"),
        ("_symmetric_on", "closure"),
    }


def test_private_attributes_are_assigned_only_on_self():
    # a private attribute written onto another object is a side channel;
    # the one exception hands a pointwise stabilizer the chain it came from
    assigned = {
        (module, ast.unparse(node))
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and _is_private(node.attr)
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    }
    assert assigned == {("stabchain", "stab._chain")}


def test_only_perm_and_harness_know_the_bytes_line():
    # perm.py decides where packed images stop being bytes, and the brute
    # filtration route in harness.py keeps its own tables on purpose; any
    # other module that writes 256 keeps a second copy of the bytes layout
    holders = {
        module
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 256
    }
    assert holders == {"perm", "harness"}


def _raises(node, where, error):
    """(function, raise) for every raise of error under node, named by the
    innermost function around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name, error)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            call = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if ast.unparse(call) == error:
                yield where, child
        yield from _raises(child, where, error)


def test_size_limits_are_about_representation():
    # the budget is the one cap on work; a size limit is about how the input
    # is held: the degree guard of chains, of coset, k-subset and partition
    # actions and of projective domains, the bytes line of packed images,
    # and the brute filtration route's 9 points. A limit on group order
    # would refuse work the budget can bound, so none is raised.
    sites = {
        (module, function)
        for module, tree in _modules()
        for function, _ in _raises(tree, None, "DegreeLimitError")
    }
    assert sites == {
        ("actions", "coset_action"),
        ("actions", "ksubsets_action"),
        ("actions", "partitions_action"),
        ("catalog", "psl_projective"),
        ("harness", "filtration_closure_orders"),
        ("perm", "translation_table"),
        ("stabchain", "build_chain"),
    }


def _handlers(node, where):
    """(function, handler) for every except clause under node, named by the
    innermost function around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _handlers(child, child.name)
            continue
        if isinstance(child, ast.ExceptHandler):
            yield where, child
        yield from _handlers(child, where)


def test_only_the_cli_ends_a_budget_error_without_raising():
    # a search that runs out raises with its finished part; a handler that
    # ends without raising returns that part as if it were the answer. The
    # command line prints the finished part, then raises to exit 3.
    handlers = [
        (module, function, handler)
        for module, tree in _modules()
        if module != "cli"
        for function, handler in _handlers(tree, None)
        if handler.type is not None and "BudgetExceededError" in ast.unparse(handler.type)
    ]
    assert {module for module, _, _ in handlers} >= {"closure", "basesize"}
    swallowing = {
        (module, function)
        for module, function, handler in handlers
        if not isinstance(handler.body[-1], ast.Raise)
    }
    assert not swallowing, swallowing
