/**
 * @file
 * The four benchmark workloads and one pass over each. A direct pass
 * builds a Machine and a Workload per config and times Machine::run;
 * the grid pass regenerates four paper artefacts through the
 * harness's public table functions, cold and then warm.
 */

#ifndef PERFBENCH_PASSES_HH
#define PERFBENCH_PASSES_HH

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hh"
#include "sim/machine.hh"
#include "util.hh"

namespace perfbench
{

/** One simulation of a direct workload. */
struct Job
{
    std::string label;  ///< "<workload>/<scheme>", unique in a workload
    vcoma::ExperimentConfig cfg;
};

/** Where a direct job's reference stream comes from. */
enum class Source
{
    Live,    ///< the workload generator, resumed per event
    Replay,  ///< a packed trace recorded during set-up
    Grid,    ///< not direct: the paper-grid regeneration
};

struct WorkloadDef
{
    std::string name;
    Source source = Source::Live;
    std::vector<Job> jobs;
};

/** Names accepted by defineWorkload(). */
const std::vector<std::string> &workloadNames();

/** The workload @p name at workload seed @p seed; throws if unknown. */
WorkloadDef defineWorkload(const std::string &name, unsigned seed);

/** Problem scale and pool size of the paper-grid workload. */
inline constexpr double gridScale = 0.25;

/**
 * Table 4's 8-entry timed configs at the grid's scale: the direct
 * sample on which a traced paper-grid run splits simulator cost.
 */
WorkloadDef gridSample();

/**
 * The packed traces a Replay workload runs from: one per distinct
 * workload spelling, recorded under its first job's config and
 * replayed under every scheme. Files are removed on destruction.
 */
class TraceSet
{
  public:
    explicit TraceSet(std::string dir) : dir_(std::move(dir)) {}
    ~TraceSet();
    TraceSet(const TraceSet &) = delete;
    TraceSet &operator=(const TraceSet &) = delete;

    /**
     * (Re)record every trace of @p def through Machine::run and a
     * RecordingWorkload. @return wall seconds taken.
     */
    double record(const WorkloadDef &def);

    const std::string &path(const std::string &spelling) const;

  private:
    std::string dir_;
    std::map<std::string, std::string> paths_;
};

/**
 * Observer of a traced direct pass: wraps each job's workload before
 * the run and inspects it after. done() is called once per job, with
 * an empty sheet when the job failed, so sheets stay in job order.
 */
class JobProbe
{
  public:
    virtual ~JobProbe() = default;
    virtual vcoma::Workload &wrap(vcoma::Workload &inner, const Job &job) = 0;
    virtual void done(const vcoma::RunStats &stats, double runSeconds) = 0;
};

/** A set-up Machine and Workload, ready to run. */
struct Prepared
{
    std::unique_ptr<vcoma::Workload> workload;
    std::unique_ptr<vcoma::Machine> machine;
};

/** Build @p job's workload and machine (the per-config set-up). */
Prepared prepare(const Job &job, const TraceSet *traces, Tracer *tracer);

struct PassResult
{
    double setupSeconds = 0;  ///< per-config workload + Machine set-up
    double cpuSeconds = 0;    ///< inside Machine::run
    double wallSeconds = 0;   ///< inside Machine::run
    std::uint64_t refs = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<vcoma::RunStats> sheets;  ///< per job, in job order
    std::vector<double> jobRunSeconds;    ///< wall inside run, per job
};

/**
 * One pass over a direct workload, checking every stats digest. Job
 * j of pass @p index runs pinned to CPU slot j + @p index; when
 * @p speed is given, the host is probed on that CPU after each job.
 */
PassResult runDirectPass(const WorkloadDef &def, std::size_t index,
                         const TraceSet *traces, OutputCheck &check,
                         Tracer *tracer = nullptr,
                         JobProbe *probe = nullptr,
                         HostSpeed *speed = nullptr);

/**
 * Seconds to re-emit every sheet's stats JSON and digest it: the
 * median of @p reps repetitions.
 */
double reemitSeconds(const std::vector<vcoma::RunStats> &sheets,
                     unsigned reps);

struct GridResult
{
    double cpuSeconds = 0;    ///< cold regeneration, all threads
    double wallSeconds = 0;   ///< cold regeneration
    double warmSeconds = 0;   ///< warm regeneration, fresh Runner
    unsigned executed = 0;    ///< simulations the cold pass ran
    std::size_t requested = 0;  ///< summed length of the *Configs lists
    std::uint64_t refs = 0;   ///< refs of the simulations executed
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Passes every run makes, however long they take. */
inline constexpr std::size_t minPasses = 3;

/**
 * Whether a run that started at @p start and has finished @p passes
 * passes makes another: until it has minPasses, then while another
 * fits into @p seconds.
 */
bool anotherPass(double start, std::size_t passes, double seconds);

/**
 * The public config lists of Table 2, Fig. 8, Table 4 and Fig. 10 at
 * the grid's scale, concatenated: what the grid pass requests.
 */
std::vector<vcoma::ExperimentConfig> gridConfigs();

/** Jobs of the grid's worker pool: min(4, hardware threads). */
unsigned gridJobs();

/**
 * Cold regeneration of Table 2, Fig. 8, Table 4 and Fig. 10 into a
 * fresh cache directory @p dir, then a warm one from a fresh Runner.
 * Every table's text is checked against its reference digest.
 */
GridResult runGridPass(const std::string &dir, OutputCheck &check,
                       Tracer *tracer = nullptr);

/**
 * Time the grid's set-up: a fresh cache directory and Runner, and the
 * workload and Machine of every config of @p sample (gridSample()),
 * which are the ones the pool's workers build for Table 4.
 */
double gridSetup(const std::string &dir, const WorkloadDef &sample);

} // namespace perfbench

#endif // PERFBENCH_PASSES_HH
