"""README.md's Library snippet runs and gives the values its comments promise."""

import ast
import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def snippet_values() -> dict:
    """Run README's one python block; map each bare expression's source to its value."""
    blocks = README.read_text().split("```python\n")[1:]
    assert len(blocks) == 1, "README.md should hold exactly one python block"
    source = blocks[0].split("```")[0]
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values[ast.get_source_segment(source, node)] = eval(
                compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_library_snippet_gives_its_promised_values():
    values = snippet_values()
    assert values["case_predicate(CaseId.WEIGHTED_JMU, m, JMu(-1))"] is True
    assert values["predicate_margin(CaseId.WEIGHTED_JMU, m, JMu(1))"] == 0.25
    assert values["kernel_residual(CaseId.WEIGHTED_JMU, m, JMu(-1))"] < 1e-15
    assert values["report.consistent"] is True
