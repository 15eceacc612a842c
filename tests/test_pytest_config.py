"""The repo's own pytest settings: a failing property test must not end the session."""
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_abort_the_session(pytester):
    # Reporting a failing @given example imports hypothesis.extra._patching,
    # whose dependencies warn on import; filterwarnings = error must not turn
    # that into an INTERNALERROR that skips every later test.
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(
        test_two="""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_two.py")
    result.assert_outcomes(failed=1, passed=1)
