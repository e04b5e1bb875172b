"""The package's export list: every name in curvact.__all__ exists, none
is listed twice, and a star import succeeds."""

import curvact


def test_every_exported_name_exists_once():
    missing = [name for name in curvact.__all__ if not hasattr(curvact, name)]
    assert missing == []
    assert len(set(curvact.__all__)) == len(curvact.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from curvact import *", namespace)
    assert set(curvact.__all__) <= set(namespace)
