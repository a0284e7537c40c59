"""The search layer stands alone: importing it loads none of the
training-data or multimodal pipelines, so retiring those modules cannot
change a search answer."""

import os
import subprocess
import sys

SEARCH_LAYER = (
    "librecatastro_ray",
    "librecatastro_ray.cli",
    "librecatastro_ray.pipelines.query",
    "librecatastro_ray.pipelines.build",
)
NOT_SEARCH_LAYER = (
    "librecatastro_ray.pipelines.training",
    "librecatastro_ray.pipelines.multimodal",
)


def test_search_layer_imports_no_training_or_multimodal():
    # a fresh interpreter: this test session may have imported them already
    code = (
        "import importlib, sys\n"
        f"for m in {SEARCH_LAYER!r}:\n"
        "    importlib.import_module(m)\n"
        f"print(sorted(m for m in {NOT_SEARCH_LAYER!r} if m in sys.modules))\n"
    )
    # ``python -c`` puts its working directory, the checkout, on sys.path
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=root,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]", out.stdout
