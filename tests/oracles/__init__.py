"""Reference implementations that production code is compared against.

Each module keeps a computation in the form it had before an optimization
replaced it, so the tests can assert that the replacement is bit-identical.
Nothing under ``src/`` imports these.
"""
