"""A watchdog for tests of failure paths: a fault must end in an error,
never in a stuck suite."""

import threading


def guarded(target, seconds=5.0) -> dict:
    """Run ``target`` on a thread under a watchdog: ``{"value": ...}``
    or ``{"error": ...}``, and a failed test — not a stuck suite — if it
    has not come back after ``seconds``."""
    outcome = {}

    def body():
        try:
            outcome["value"] = target()
        except BaseException as error:  # handed to the test, which asserts on it
            outcome["error"] = error

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no outcome after {seconds} s: the call hangs"
    return outcome
