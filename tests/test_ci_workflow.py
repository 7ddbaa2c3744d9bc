"""The weekly deep job in ``.github/workflows/tier1.yml`` runs every test
module whose draws the deep profile changes.

A module that imports hypothesis draws under the active hypothesis
profile, and one that reads ``DEEP`` (from ``conftest``) scales its own
seeded draws by it.  The ``deep-properties`` job names the modules it runs
one by one, so a new such module left off that list would never run deep.
"""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tier1.yml"


def deep_job_modules() -> set[str]:
    """The test files the ``deep-properties`` job names, as tests/<file>."""
    text = WORKFLOW.read_text(encoding="utf-8")
    job = re.search(r"^  deep-properties:\n((?:    .*\n|\s*\n)*)", text, re.MULTILINE)
    assert job, "tier1.yml has no deep-properties job"
    return set(re.findall(r"tests/test_\w+\.py", job.group(1)))


def runs_deeper(path: Path) -> bool:
    """Whether the module imports hypothesis or reads ``DEEP``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "hypothesis" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "hypothesis":
                return True
            if any(alias.name == "DEEP" for alias in node.names):
                return True
        elif isinstance(node, ast.Name) and node.id == "DEEP":
            return True
    return False


def test_deep_job_lists_every_module_the_profile_changes():
    deeper = {f"tests/{path.name}" for path in sorted(TESTS.glob("test_*.py"))
              if runs_deeper(path)}
    assert len(deeper) >= 14
    listed = deep_job_modules()
    assert not deeper - listed, f"missing from the deep-properties job: {sorted(deeper - listed)}"
    assert not listed - {f"tests/{path.name}" for path in TESTS.glob("test_*.py")}, \
        "the deep-properties job names a test file that does not exist"
