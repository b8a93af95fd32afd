import pytest


@pytest.fixture
def record_calls(monkeypatch):
    """Wrap ``module.name`` for the test; returns the list its results go to.

    The wrapper calls the function bound at install time and appends each
    result, so ``len`` of the list is the call count.
    """

    def install(module, name):
        original = getattr(module, name)
        results = []

        def recorded(*args, **kwargs):
            result = original(*args, **kwargs)
            results.append(result)
            return result

        monkeypatch.setattr(module, name, recorded)
        return results

    return install
