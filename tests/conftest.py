import pytest

from background import CHECKS, Background


def pytest_collection_modifyitems(items):
    # A test that waits for a subprocess runs last, so that its wait
    # overlaps no in-process test.
    items.sort(key=lambda item: item.name in CHECKS)


@pytest.fixture(scope="session", autouse=True)
def background(request):
    """Starts the subprocess of every selected test in `background.CHECKS`
    before the first test runs (see background.py)."""
    runs = Background()
    for item in request.session.items:
        if item.name in CHECKS:
            runs.start(item.name)
    yield runs
    runs.close()
