class EngineLimitError(RuntimeError):
    """A solver refused the input: more vertices than its engine supports."""
