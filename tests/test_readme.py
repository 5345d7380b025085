"""The README's examples run as printed."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_use_snippet():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(code, scope)
    assert scope["module"].rows == ((1, 1, 1), (0, 3, 28), (0, 0, 35))
