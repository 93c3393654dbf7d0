"""Every ``python`` code block in docs/*.md must execute.

Documentation that cannot run is documentation that has drifted: this
suite extracts every fenced ```python block from the docs tree and
executes it.  Blocks in one file share a namespace, top to bottom, so a
page can build its example progressively.  Shell/pseudocode snippets
use ```sh / ```text fences and are ignored — the rule is simply that
anything *claiming* to be Python runs.

Assertions inside the blocks are part of the docs (they show the reader
what to expect) and double as the test oracle here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

DOCS_DIR = Path(__file__).resolve().parents[2] / "docs"

_FENCE = re.compile(r"^```python[ \t]*\n(.*?)^```[ \t]*$",
                    re.MULTILINE | re.DOTALL)


def _python_blocks(path: Path) -> list[str]:
    return [match.group(1) for match in _FENCE.finditer(path.read_text())]


def _doc_pages() -> list[Path]:
    pages = sorted(DOCS_DIR.glob("*.md"))
    assert pages, f"no docs found under {DOCS_DIR}"
    return pages


@pytest.mark.parametrize("page", _doc_pages(), ids=lambda p: p.name)
def test_doc_code_blocks_execute(page):
    from repro.api import clear_result_cache

    blocks = _python_blocks(page)
    if not blocks:
        pytest.skip(f"{page.name} has no python blocks")
    clear_result_cache()
    namespace: dict = {"__name__": f"docs.{page.stem}"}
    for index, block in enumerate(blocks):
        code = compile(block, f"{page}#block{index + 1}", "exec")
        try:
            exec(code, namespace)  # noqa: S102 - executing our own docs
        finally:
            clear_result_cache()


def test_every_doc_page_is_linked_from_readme():
    """docs/ pages nobody can find are docs nobody reads: the README
    must link each one."""
    readme = (DOCS_DIR.parent / "README.md").read_text()
    for page in _doc_pages():
        assert f"docs/{page.name}" in readme, (
            f"README.md does not link docs/{page.name}")


# ---------------------------------------------------------------------------
# the public surface's docstrings
# ---------------------------------------------------------------------------

def _public_exports():
    import repro.api
    import repro.api.executors

    seen = set()
    for module in (repro.api, repro.api.executors):
        for name in module.__all__:
            obj = getattr(module, name)
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            yield f"{module.__name__}.{name}", name, obj


def test_every_export_has_a_docstring():
    """Every class and function exported from the public surface
    documents itself (constants carry ``#:`` comments instead — Python
    cannot attach docstrings to them)."""
    import inspect

    missing = []
    for qualname, _name, obj in _public_exports():
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if not (obj.__doc__ or "").strip():
            missing.append(qualname)
    assert missing == [], f"exports without docstrings: {missing}"


def _docstring_examples():
    """(qualname, code) for every ``Example::`` block in an exported
    docstring."""
    import inspect
    import textwrap

    for qualname, _name, obj in _public_exports():
        # getdoc strips the trailing newline, which would otherwise cut
        # an example's last line out of the fence match.
        doc = (inspect.getdoc(obj) or "") + "\n"
        for match in re.finditer(
                r"^Example[^\n]*::\n\n((?:(?:    .*)?\n)+)", doc,
                re.MULTILINE):
            yield qualname, textwrap.dedent(match.group(1))


EXAMPLES = list(_docstring_examples())


def test_the_primary_surface_carries_examples():
    """The names a new user meets first must show, not tell."""
    documented = {qualname.rsplit(".", 1)[-1] for qualname, _ in EXAMPLES}
    expected = {"World", "Session", "Sandbox", "Batch", "RunResult",
                "ScriptRegistry", "BoundedCache", "SequentialExecutor",
                "ThreadExecutor", "ProcessExecutor", "StoreExecutor",
                "RemoteExecutor", "ServeExecutor"}
    assert expected <= documented, (
        f"missing Example:: blocks on: {sorted(expected - documented)}")


@pytest.mark.parametrize("qualname,code", EXAMPLES,
                         ids=[q for q, _ in EXAMPLES])
def test_docstring_examples_execute(qualname, code):
    """An example that does not run is worse than none: execute every
    ``Example::`` block on the public surface.  Examples that need live
    agents spawn their own (and clean up)."""
    from repro.api import clear_result_cache

    clear_result_cache()
    try:
        exec(compile(code, f"<{qualname} example>", "exec"),
             {"__name__": f"example.{qualname}"})
    finally:
        clear_result_cache()
