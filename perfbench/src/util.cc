#include "util.hh"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <unordered_map>

#include "sim/run_stats_json.hh"
#include "translation/system_builder.hh"

namespace perfbench
{

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
hostProbe()
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    // A single cycle through all slots (Sattolo's shuffle), built
    // before the clock starts.
    std::vector<std::uint32_t> ring(1u << 20);
    for (std::uint32_t i = 0; i < ring.size(); ++i)
        ring[i] = i;
    for (std::size_t i = ring.size() - 1; i > 0; --i)
        std::swap(ring[i], ring[next() % i]);

    const double t0 = processCpuSeconds();
    std::uint64_t sink = 0;
    {
        std::unordered_map<std::uint64_t, std::uint64_t> table;
        for (std::uint64_t i = 0; i < 200000; ++i) {
            table[next() % 200000] += i;
            sink += table.count((x >> 5) % 200000);
        }
    }
    std::uint32_t at = 0;
    for (unsigned i = 0; i < 500000; ++i)
        at = ring[at];
    sink += at;
    const double took = processCpuSeconds() - t0;
    volatile std::uint64_t keep = sink;  // the work must not be elided
    (void)keep;
    return took;
}

double
HostSpeed::slowdown(std::size_t first, std::size_t last) const
{
    last = std::min(last, probes_.size());
    if (first >= last)
        return 1.0;
    double sum = 0;
    for (std::size_t i = first; i < last; ++i)
        sum += probes_[i];
    return sum / (last - first) / probeReferenceSeconds;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::pair<double, double>
quartiles(std::vector<double> v)
{
    // Python's statistics.quantiles(v, n=4), "exclusive" method.
    if (v.size() < 2) {
        const double m = v.empty() ? 0.0 : v[0];
        return {m, m};
    }
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    auto at = [&](int k) {
        const double pos = k * (n + 1) / 4.0;
        const double j = std::floor(pos);
        const double delta = pos - j;
        const std::size_t lo = static_cast<std::size_t>(
            std::clamp(j, 1.0, n)) - 1;
        const std::size_t hi = static_cast<std::size_t>(
            std::clamp(j + 1, 1.0, n)) - 1;
        return v[lo] + (v[hi] - v[lo]) * delta;
    };
    return {at(1), at(3)};
}

std::string
digest(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h;
    return os.str();
}

std::string
statsJson(const vcoma::RunStats &stats)
{
    std::ostringstream os;
    vcoma::writeRunStatsJson(os, stats);
    return os.str();
}

vcoma::MachineConfig
machineConfig(const vcoma::ExperimentConfig &cfg)
{
    vcoma::MachineConfig mc =
        vcoma::baselineConfig(cfg.scheme, cfg.tlbEntries, cfg.tlbAssoc);
    mc.numNodes = cfg.nodes;
    mc.timedTranslation = cfg.timedTranslation;
    mc.translation.writebacksAccessTlb = cfg.writebacksAccessTlb;
    mc.seed = cfg.seed;
    mc.am.assoc = cfg.amAssoc;
    mc.timing.translationMiss = cfg.xlatPenalty;
    return mc;
}

vcoma::WorkloadParams
workloadParams(const vcoma::ExperimentConfig &cfg)
{
    vcoma::WorkloadParams wp;
    wp.threads = cfg.nodes;
    wp.scale = cfg.scale;
    wp.seed = cfg.seed;
    wp.raytraceV2Layout = cfg.raytraceV2;
    return wp;
}

CpuPin::CpuPin(std::size_t slot)
{
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
        return;  // unpinned: timings stay valid, only less steady
    const int count = CPU_COUNT(&saved_);
    if (count < 2)
        return;
    std::size_t nth = slot % static_cast<std::size_t>(count);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &saved_) || nth-- != 0)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
        return;
    }
}

CpuPin::~CpuPin()
{
    if (pinned_)
        sched_setaffinity(0, sizeof saved_, &saved_);
}

namespace
{

std::string
refKey(unsigned seed, const std::string &workload, const std::string &label)
{
    return std::to_string(seed) + ' ' + workload + ' ' + label;
}

} // namespace

References::References(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        unsigned seed = 0;
        std::string workload, label, hex;
        if (!(ls >> seed >> workload >> label >> hex))
            continue;
        digests_[refKey(seed, workload, label)] = hex;
        seeds_ = std::max(seeds_, seed);
    }
}

const std::string *
References::find(unsigned seed, const std::string &workload,
                 const std::string &label) const
{
    auto it = digests_.find(refKey(seed, workload, label));
    return it == digests_.end() ? nullptr : &it->second;
}

bool
OutputCheck::check(const std::string &label, std::string_view text)
{
    const unsigned seed = seed_;
    const std::string d = digest(text);
    if (emit_) {
        if (!emitted_.insert(label).second)
            return true;  // the warm grid pass repeats the cold labels
        std::cout << "REF " << seed << ' ' << workload_ << ' ' << label
                  << ' ' << d << '\n';
        return true;
    }
    const std::string *ref = refs_.find(seed, workload_, label);
    if (ref && *ref == d)
        return true;
    std::cerr << "perfbench: output " << label << " of " << workload_
              << " (workload seed " << seed << ") has digest " << d
              << ", reference " << (ref ? *ref : "missing") << '\n';
    return false;
}

void
MetricSheet::set(const std::string &name, double value,
                 const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

namespace
{

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;  // never emitted by a correct run; keeps JSON valid
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

} // namespace

void
MetricSheet::print(std::ostream &os) const
{
    for (const auto &[name, vu] : metrics_) {
        os << "  " << std::left << std::setw(30) << name << std::right
           << std::setw(22) << number(vu.first) << ' ' << vu.second
           << '\n';
    }
}

void
MetricSheet::printResult(std::ostream &os, bool correct,
                         std::uint64_t attempted,
                         std::uint64_t failed) const
{
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : metrics_) {
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << number(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
        first = false;
    }
    os << "}}" << std::endl;
}

Tracer::Scope::Scope(Tracer *t, std::string name, std::string config)
    : t_(t)
{
    if (!t_)
        return;
    Span s;
    s.name = std::move(name);
    s.config = std::move(config);
    s.parent = t_->open_.empty() ? -1 : static_cast<long>(t_->open_.back());
    idx_ = t_->spans_.size();
    t_->open_.push_back(idx_);
    s.start = wallSeconds() - t_->origin_;
    t_->spans_.push_back(std::move(s));
}

Tracer::Scope::~Scope()
{
    if (!t_)
        return;
    t_->spans_[idx_].end = wallSeconds() - t_->origin_;
    t_->open_.pop_back();
}

double
Tracer::Scope::elapsed() const
{
    return t_ ? wallSeconds() - t_->origin_ - t_->spans_[idx_].start : 0.0;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"config\": \"" << s.config << "\", \"start\": "
            << number(s.start) << ", \"end\": " << number(s.end)
            << ", \"parent\": " << s.parent << "}\n";
    }
    return static_cast<bool>(out);
}

} // namespace perfbench
