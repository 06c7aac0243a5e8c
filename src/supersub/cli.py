"""Command-line frontend: gen-data, train, finetune, pack, unpack, eval, report.

Every verb reads the experiment config given by --config and works inside
its output directory (overridable with --out). Exit codes: 0 success,
2 user or configuration error, 3 artifact integrity error (bad checksum,
stale delta fingerprint).
"""

from __future__ import annotations

import argparse
import sys

from . import experiment as exp
from .errors import FormatError, SuperSubError

_USER_ERRORS = (SuperSubError, IndexError, FileNotFoundError, IsADirectoryError, NotADirectoryError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supersub",
        description="Train, compress and serve a two-stage superclass/subclass classifier.",
    )
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", default=None, help="override the config's output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config's seed")
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("gen-data", help="generate and write the train/test dataset files")

    p_train = sub.add_parser("train", help="train one model")
    p_train.add_argument("target", help='"super", "lowerbound", or "sub:<i>"')

    p_ft = sub.add_parser("finetune", help="finetune the router into one specialist")
    p_ft.add_argument("superclass", type=int)

    p_pack = sub.add_parser("pack", help="compute and compress one specialist delta")
    p_pack.add_argument("superclass", type=int)

    p_unpack = sub.add_parser("unpack", help="reconstruct a specialist from its delta")
    p_unpack.add_argument("superclass", type=int)

    p_eval = sub.add_parser("eval", help="evaluate one mode over the test set")
    p_eval.add_argument("mode", choices=exp.MODES)

    sub.add_parser("report", help="render the gap summary and compression table")

    sub.add_parser("run", help="run the whole pipeline end to end")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = exp.load_config(args.config, out_dir_override=args.out, seed_override=args.seed)
        if args.verb == "gen-data":
            train_path, test_path = exp.cmd_gen_data(config)
            print(f"wrote {train_path} and {test_path}")
        elif args.verb == "train":
            path = exp.cmd_train(config, args.target)
            print(f"wrote {path}")
        elif args.verb == "finetune":
            path = exp.cmd_finetune(config, args.superclass)
            print(f"wrote {path}")
        elif args.verb == "pack":
            path, summary = exp.cmd_pack(config, args.superclass)
            print(summary)
            print(f"wrote {path}")
        elif args.verb == "unpack":
            path = exp.cmd_unpack(config, args.superclass)
            print(f"wrote {path}")
        elif args.verb == "eval":
            result = exp.cmd_eval(config, args.mode)
            print(
                f"{result.report.mode}: macro {result.report.macro_accuracy:.2f}% "
                f"over {result.report.n_test} rows"
            )
        elif args.verb == "report":
            text, _ = exp.cmd_report(config)
            print(text, end="")
        elif args.verb == "run":
            run = exp.run_experiment(config)
            for summary in run.pack_summaries:
                print(summary)
            for mode, result in run.results.items():
                print(f"{mode}: macro {result.report.macro_accuracy:.2f}%")
        return 0
    except FormatError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
