/**
 * @file
 * runc: the container sandbox runtime for CPU and DPU functions.
 *
 * Implements the OCI surface (vectorized operations degenerate to
 * one-sized vectors, §5) plus Molecule's container fork. cfork (§4.2)
 * clones a pre-prepared template container into a new function
 * container, in four stackable optimization stages matching the
 * Fig 11-a ablation:
 *
 *   ColdBoot            - no template: container start + language
 *                         runtime boot + imports (the baseline);
 *   CforkNaive          - fork the template's forkable runtime, start
 *                         a fresh function container, attach via the
 *                         stock kernel's cpuset semaphore;
 *   CforkFuncContainer  - settle the child into a *pre-initialized*
 *                         function container (skips container start);
 *   CforkCpusetOpt      - additionally use the kernel patch replacing
 *                         the cpuset semaphore with a mutex.
 *
 * The forkable language runtime merges threads before fork and
 * re-expands them in the child; memory follows COW semantics through
 * the os layer, which is where the Fig 11-b/c RSS/PSS curves and the
 * Fig 2-a DPU density win come from.
 */

#ifndef MOLECULE_SANDBOX_RUNC_HH
#define MOLECULE_SANDBOX_RUNC_HH

#include <deque>
#include <map>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "core/status.hh"
#include "os/kernel.hh"
#include "sandbox/oci.hh"

namespace molecule::sandbox {

/** Startup strategy used by create() (the Fig 11-a ablation knob). */
enum class StartupPath {
    ColdBoot,
    CforkNaive,
    CforkFuncContainer,
    CforkCpusetOpt,
};

const char *toString(StartupPath p);

/** One live sandboxed function instance. */
struct Instance
{
    std::string id;
    std::string funcId;
    SandboxState state = SandboxState::Unknown;
    os::Process *proc = nullptr;
    os::Container *container = nullptr;
    const FunctionImage *image = nullptr;
    /** Created via cfork (shares the template's runtime region). */
    bool forked = false;
    /** First execution already paid its COW faults. */
    bool cowSettled = false;
    /** Killed by an injected fault (OOM, PU crash). Dead instances
     * stay in the table — in-flight invokes hold pointers to them —
     * but proc/container are nulled (the OS reclaimed them). */
    bool dead = false;
    core::Errc deathCause = core::Errc::Ok;
};

/**
 * Container runtime bound to one local OS (one PU).
 */
class RuncRuntime : public VectorizedSandboxRuntime
{
  public:
    explicit RuncRuntime(os::LocalOs &os) : os_(os) {}

    os::LocalOs &localOs() { return os_; }

    void setStartupPath(StartupPath path) { path_ = path; }

    /** @name cfork template management (§4.2) */
    ///@{

    /**
     * Boot the template container for @p image's language: container +
     * forkable runtime; children will share its runtime region.
     * One template per language (the paper's generic template).
     */
    sim::Task<bool> prepareTemplate(const FunctionImage &image);

    bool hasTemplate(Language lang) const;

    os::Process *templateProcess(Language lang);

    /** Pre-initialize @p n function containers (FuncContainer stage). */
    sim::Task<int> prewarmFunctionContainers(int n);

    std::size_t pooledContainers() const { return pool_.size(); }
    ///@}

    /** @name OCI surface */
    ///@{
    SandboxState state(const std::string &sandboxId) override;

    sim::Task<bool> create(const CreateRequest &req) override;

    sim::Task<bool> start(const std::string &sandboxId) override;

    sim::Task<> kill(const std::string &sandboxId, int signal) override;

    sim::Task<> destroy(const std::string &sandboxId) override;
    ///@}

    /**
     * Execute one request in a running instance: first execution after
     * cfork pays COW page faults on the shared runtime region, then
     * the function body occupies a core for @p hostExecCost.
     *
     * @return ok, or the typed death cause when the instance was
     *         killed by an injected fault before or during execution
     *         (SandboxOomKilled, PuCrashed). The CPU time up to the
     *         kill is spent either way.
     */
    [[nodiscard]] sim::Task<core::Status>
    invoke(Instance &inst, sim::SimTime hostExecCost,
           obs::SpanContext ctx = {});

    /** invoke() on the instance named @p sandboxId, which must exist. */
    [[nodiscard]] sim::Task<core::Status>
    invoke(const std::string &sandboxId, sim::SimTime hostExecCost,
           obs::SpanContext ctx = {});

    /** @name Fault paths */
    ///@{

    /**
     * OOM-kill every live instance of @p funcId: state goes Stopped,
     * the process exits (memory released), in-flight invokes return
     * SandboxOomKilled. @return instances killed.
     */
    int oomKill(const std::string &funcId);

    /**
     * The PU crashed: every instance, template and pooled container
     * dies. Instance records stay (flagged dead) for in-flight
     * pointers; the OS-side objects are reclaimed by
     * LocalOs::crashReset(), so only the pointers are dropped here.
     */
    void crashPurge();
    ///@}

    Instance *find(const std::string &sandboxId);

    std::size_t instanceCount() const { return instances_.size(); }

    /** @name Memory introspection (Fig 11-b/c) */
    ///@{
    std::uint64_t instanceRss(const std::string &sandboxId);

    double instancePss(const std::string &sandboxId);

    std::uint64_t templateRss(Language lang);
    ///@}

  private:
    struct TemplateState
    {
        os::Process *proc = nullptr;
        os::Container *container = nullptr;
        os::MemRegionPtr runtimeRegion;
        const FunctionImage *image = nullptr;
    };

    sim::Task<bool> createCold(Instance &inst, obs::SpanContext ctx);

    sim::Task<bool> createCfork(Instance &inst, obs::SpanContext ctx);

    /** Drop the row of @p sandboxId, if any. */
    void eraseInstance(std::string_view sandboxId);

    os::LocalOs &os_;
    StartupPath path_ = StartupPath::CforkCpusetOpt;
    std::map<Language, TemplateState> templates_;
    std::deque<os::Container *> pool_;
    /** Live and dead instances by id. Each key views its own
     * Instance::id, which lives as long as the row. Only the fault
     * paths iterate it, and they schedule nothing, so the hash order
     * never reaches the event queue. */
    std::unordered_map<std::string_view, std::unique_ptr<Instance>>
        instances_;
    std::uint64_t nextId_ = 0;
};

} // namespace molecule::sandbox

#endif // MOLECULE_SANDBOX_RUNC_HH
