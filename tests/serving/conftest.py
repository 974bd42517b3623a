"""Fixtures shared by the serving tests.

The request server runs an asyncio loop on a background thread.  When a
connection handler dies there, the loop logs the exception on the
``asyncio`` logger and carries on: the client just sees its connection
go quiet, and the test that provoked it could still pass.  The autouse
fixture below turns any such ERROR record into a test failure.
"""

from __future__ import annotations

import logging

import pytest


class _ErrorRecords(logging.Handler):
    """Keeps every record at ERROR or above."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def fail_on_event_loop_errors():
    """Fail the test if the ``asyncio`` logger records an ERROR."""
    handler = _ErrorRecords()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.records:
        messages = "\n".join(
            handler.format(record) for record in handler.records
        )
        pytest.fail(f"the event loop logged errors:\n{messages}")
