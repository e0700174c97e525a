"""The package exports exactly the exceptions that reach the command
line: the pipeline failures ``cli._FAILURES`` maps to an exit code.
Every other exception the package raises is a signal that the strategy
raising it catches and reports as its outcome's reason."""

import mergeweaver
from mergeweaver.cli import _FAILURES, WriteFailure


def test_exported_exceptions_are_the_pipeline_failures():
    exported = {getattr(mergeweaver, name) for name in mergeweaver.__all__}
    exceptions = {kind for kind in exported if isinstance(kind, type)
                  and issubclass(kind, Exception)}
    assert exceptions == set(_FAILURES) - {WriteFailure}
    assert {kind.__name__ for kind in exceptions} == {
        "ParseError", "UnreadableSource", "TextualConflict",
        "MissingGolden", "DuplicateEntity"}
