import pytest

from nullkahler.expressions import Expr


@pytest.fixture()
def diff_calls(monkeypatch):
    """Every class-level ``diff`` call from here on, as (node, var)."""
    calls = []
    for cls in Expr.__subclasses__():
        def counted(self, var, _rule=cls.diff):
            calls.append((self, var))
            return _rule(self, var)
        monkeypatch.setattr(cls, "diff", counted)
    return calls


@pytest.fixture()
def evaluate_calls(monkeypatch):
    """Every class-level ``evaluate`` call from here on, as the node."""
    calls = []
    for cls in Expr.__subclasses__():
        def counted(self, env, memo=None, _rule=cls.evaluate):
            calls.append(self)
            return _rule(self, env, memo)
        monkeypatch.setattr(cls, "evaluate", counted)
    return calls
