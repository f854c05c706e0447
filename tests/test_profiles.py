from hypothesis import settings


def test_the_command_line_profile_overrides_the_default(request):
    """The conftest loads the ``derandomized`` profile unless the command
    line names another, as the fresh-seed CI job names ``random``."""
    named = request.config.getoption("hypothesis_profile")
    assert settings.default.derandomize is (named in (None, "derandomized"))
