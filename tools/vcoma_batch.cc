/**
 * @file
 * vcoma_batch — run a batch of simulations through one local Runner
 * and write one stats sheet per config.
 *
 *   vcoma_batch --workloads RADIX,FFT --schemes L0,VCOMA \
 *               --scale 0.1 --out-dir sheets/
 *   vcoma_batch --workload FFT --scheme VCOMA --jsonl results.jsonl
 *
 * The configs are the cross product of --workloads (outer) and
 * --schemes (inner) over the shared config options. They go through
 * one Runner::runAll: configs the shared disk cache does not hold
 * simulate concurrently on up to $VCOMA_JOBS threads. Each
 * simulation is deterministic, so the output bytes do not depend on
 * the job count or on whether a config came from the cache.
 *
 * Sheets are the exact writeRunStatsJson() output plus one newline:
 * `--out-dir D` writes D/<config key>.json, and `--jsonl FILE`
 * appends one line per config in submission order (the same schema
 * $VCOMA_STATS_JSON produces), so tools/vcoma_sweep reads one stable
 * JSONL interface. A config that fails appends a
 * {"schema":1,"key":...,"error":...} placeholder instead, so the file
 * always lines up 1:1 with the configs, and the exit status is 1.
 * The file is appended to, never truncated; remove it first for a
 * fresh sweep.
 *
 * One provenance line per config goes to stderr, in submission
 * order: `vcoma_batch: KEY (cached|simulated)`, or
 * `vcoma_batch: KEY: failed: MESSAGE`.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_flags.hh"
#include "common/json.hh"
#include "harness/runner.hh"
#include "sim/run_stats_json.hh"

using namespace vcoma;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "usage: vcoma_batch [options] --out-dir D | --jsonl FILE\n"
        "config options:\n"
        "  --workload NAME | --workloads A,B,...\n"
        "  --scheme S | --schemes S1,S2,...\n"
        "  --entries N --assoc N --nodes N --scale X --seed N\n"
        "  --timed | --untimed --no-wback-tlb --raytrace-v2\n"
        "  --am-assoc N --xlat-penalty N --inject-fault CLASS\n"
        "output options (at least one):\n"
        "  --out-dir D                write D/<config key>.json\n"
        "  --jsonl FILE               append one stats record per\n"
        "                             config (VCOMA_STATS_JSON schema,\n"
        "                             submission order)\n";
    std::exit(code);
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::vector<Scheme>
schemeList(const std::string &flag, const std::string &list)
{
    std::vector<Scheme> out;
    for (const std::string &token : splitList(list))
        out.push_back(cli::parseSchemeFlag(flag, token));
    return out;
}

struct Options
{
    std::string outDir;
    std::string jsonlFile;
    std::vector<std::string> workloads{"RADIX"};
    std::vector<Scheme> schemes{Scheme::VCOMA};
    ExperimentConfig base;
};

Options
parse(int argc, char **argv)
{
    Options opt;
    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << argv[i] << "\n";
            usage(2);
        }
        return argv[++i];
    };
    using cli::parseUnsignedFlag;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out-dir")
            opt.outDir = value(i);
        else if (arg == "--jsonl")
            opt.jsonlFile = value(i);
        else if (arg == "--workload")
            opt.workloads = {value(i)};
        else if (arg == "--workloads")
            opt.workloads = splitList(value(i));
        else if (arg == "--scheme" || arg == "--schemes")
            opt.schemes = schemeList(arg, value(i));
        else if (arg == "--entries")
            opt.base.tlbEntries = parseUnsignedFlag<unsigned>(arg, value(i));
        else if (arg == "--assoc")
            opt.base.tlbAssoc = parseUnsignedFlag<unsigned>(arg, value(i));
        else if (arg == "--nodes")
            opt.base.nodes = parseUnsignedFlag<unsigned>(arg, value(i));
        else if (arg == "--scale")
            opt.base.scale = cli::parsePositiveFlag(arg, value(i));
        else if (arg == "--seed")
            opt.base.seed = parseUnsignedFlag<std::uint64_t>(arg, value(i));
        else if (arg == "--untimed")
            opt.base.timedTranslation = false;
        else if (arg == "--timed")
            opt.base.timedTranslation = true;
        else if (arg == "--no-wback-tlb")
            opt.base.writebacksAccessTlb = false;
        else if (arg == "--raytrace-v2")
            opt.base.raytraceV2 = true;
        else if (arg == "--am-assoc")
            opt.base.amAssoc = parseUnsignedFlag<unsigned>(arg, value(i));
        else if (arg == "--xlat-penalty")
            opt.base.xlatPenalty = parseUnsignedFlag<Cycles>(arg, value(i));
        else if (arg == "--inject-fault")
            opt.base.injectFault = value(i);
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else {
            std::cerr << "vcoma_batch: unknown argument '" << arg
                      << "' (see --help)\n";
            usage(2);
        }
    }
    if (opt.outDir.empty() && opt.jsonlFile.empty()) {
        std::cerr << "vcoma_batch needs --out-dir and/or --jsonl\n";
        usage(2);
    }
    return opt;
}

std::vector<ExperimentConfig>
batchConfigs(const Options &opt)
{
    std::vector<ExperimentConfig> cfgs;
    for (const std::string &w : opt.workloads) {
        for (const Scheme s : opt.schemes) {
            ExperimentConfig cfg = opt.base;
            cfg.workload = w;
            cfg.scheme = s;
            cfgs.push_back(cfg);
        }
    }
    return cfgs;
}

void
writeSheet(const std::string &path, const std::string &statsJson)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write '" << path << "'\n";
        std::exit(1);
    }
    out << statsJson << "\n";
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parse(argc, argv);
    if (!opt.outDir.empty())
        std::filesystem::create_directories(opt.outDir);
    std::ofstream jsonl;
    if (!opt.jsonlFile.empty()) {
        jsonl.open(opt.jsonlFile, std::ios::app);
        if (!jsonl) {
            std::cerr << "cannot append to '" << opt.jsonlFile << "'\n";
            return 1;
        }
    }

    const std::vector<ExperimentConfig> cfgs = batchConfigs(opt);
    Runner runner;
    std::vector<bool> fresh;
    const std::vector<const RunStats *> results =
        runner.runAll(cfgs, &fresh);

    int rc = 0;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const std::string key = cfgs[i].key();
        if (!results[i]) {
            const std::string error = runner.failureMessage(key);
            std::cerr << "vcoma_batch: " << key << ": failed: " << error
                      << "\n";
            if (jsonl.is_open())
                jsonl << "{\"schema\":1,\"key\":\"" << jsonEscape(key)
                      << "\",\"error\":\"" << jsonEscape(error)
                      << "\"}\n";
            rc = 1;
            continue;
        }
        std::cerr << "vcoma_batch: " << key
                  << (fresh[i] ? " (simulated)" : " (cached)") << "\n";
        std::ostringstream sheet;
        writeRunStatsJson(sheet, *results[i]);
        if (jsonl.is_open())
            jsonl << sheet.str() << "\n";
        if (!opt.outDir.empty())
            writeSheet(opt.outDir + "/" + key + ".json", sheet.str());
    }
    return rc;
} catch (const std::exception &e) {
    std::cerr << e.what() << "\n";
    return 1;
}
