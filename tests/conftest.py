import pytest

from sd2 import autodiff as ad


@pytest.fixture()
def record_every_tape(monkeypatch):
    """Calling it makes every tape built afterwards record, including those a
    forward pass asks not to, so tape-free results can be compared with
    recorded ones."""
    class AlwaysRecordingTape(ad.Tape):
        def __init__(self, *args, record=True, **kwargs):
            super().__init__(*args, **kwargs)

    return lambda: monkeypatch.setattr(ad, "Tape", AlwaysRecordingTape)
