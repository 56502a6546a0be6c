"""Known-bad: logging a ConvergenceError is not exception safety.

The handler observes the failure but resumes with the stale engine; only
invalidation or a re-raise discharges the obligation.  A mixed handler
tuple is still a catch.
"""


def converge_with_retry(overlay, attempts):
    for _ in range(attempts):
        try:
            return overlay.converge()
        except (ValueError, ConvergenceError) as error:  # expect: RPL007
            print("convergence failed:", error)
    return None


def drain_until_stable(overlay, batches):
    applied = 0
    for batch in batches:
        try:
            overlay.apply_batch(batch)
            applied += 1
        except ConvergenceError as error:  # expect: RPL007
            applied = note_failure(error, applied)
    return applied


def note_failure(error, applied):
    return applied
