"""One timed CLI call in a fresh interpreter.

Usage: ``python3 bench/worker.py SRC_DIR RESULT_JSON [--trace] -- [CLI_ARGS...]``

Times ``import codaboot.cli`` (the set-up every CLI user pays) and then
``codaboot.cli.main(CLI_ARGS)``, and writes both times, the exit code
and the peak resident memory of this process to ``RESULT_JSON``; without
CLI arguments only the import is timed.  With ``--trace`` the calls into
codaboot's public functions are recorded as spans (see ``spans.py``),
and the imports of ``codaboot`` and ``scipy.stats`` are timed on their
own, all written with the result.  Only the standard library is imported
before the timed import.
"""

import json
import resource
import sys
import time

TIMED_IMPORTS = ("codaboot", "scipy.stats")


class ImportTimer:
    """Meta-path finder timing how long chosen modules take to execute.

    A module's execution includes every import it triggers, so this is
    the cumulative column of ``-X importtime``, which does not report
    ``scipy.stats`` when it is reached through ``from scipy import stats``.
    """

    def __init__(self, names):
        self.names = names
        self.seconds = {}

    def find_spec(self, name, path, target=None):
        if name not in self.names:
            return None
        for finder in sys.meta_path:
            if finder is not self and hasattr(finder, "find_spec"):
                spec = finder.find_spec(name, path, target)
                if spec is not None:
                    break
        else:
            return None
        execute = spec.loader.exec_module

        def timed(module):
            start = time.perf_counter()
            try:
                execute(module)
            finally:
                self.seconds[name] = time.perf_counter() - start

        spec.loader.exec_module = timed
        return spec


def main(argv):
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    src_dir, result_path = options[0], options[1]
    traced = "--trace" in options[2:]
    sys.path.insert(0, src_dir)
    import_timer = ImportTimer(TIMED_IMPORTS)
    if traced:
        sys.meta_path.insert(0, import_timer)

    start = time.perf_counter()
    import codaboot.cli
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}

    if cli_args:
        main_call = codaboot.cli.main
        if traced:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            main_call = tracer.wrap(spans.ROOT, main_call)

        start = time.perf_counter()
        result["exit_code"] = main_call(cli_args)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            result["spans"] = tracer.records()
            result["imports"] = import_timer.seconds
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
