"""A fresh directory for each hypothesis example that writes files.

Each example writes in a new directory under one directory per prefix, and
removes it with its files when its checks end.  So a run keeps no file of a
passing example, no file is rewritten in place (slow on some filesystems),
and no example scans the base temp for the next numbered name, as
``tmp_path_factory.mktemp`` does.
"""

import contextlib
import itertools
import shutil

_NEXT = itertools.count()


@contextlib.contextmanager
def example_dir(tmp_path_factory, prefix: str):
    """A new empty directory, removed with everything in it when the block ends."""
    parent = tmp_path_factory.getbasetemp() / f"examples-{prefix}"
    parent.mkdir(exist_ok=True)
    directory = parent / str(next(_NEXT))
    directory.mkdir()
    try:
        yield directory
    finally:
        shutil.rmtree(directory)
