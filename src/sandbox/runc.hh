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

#include <coroutine>
#include <deque>
#include <map>
#include <memory>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/status.hh"
#include "os/kernel.hh"
#include "sandbox/oci.hh"
#include "sim/spares.hh"

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
    /** Views image->funcId. */
    std::string_view funcId;
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

    /** Awaiter of start(Instance &). */
    class Start
    {
      public:
        bool await_ready() const noexcept { return !ok_; }

        [[nodiscard]] bool
        await_suspend(std::coroutine_handle<> h) const
        {
            return syscall_.await_suspend(h);
        }

        bool
        await_resume() const noexcept
        {
            if (ok_)
                inst_->state = SandboxState::Running;
            return ok_;
        }

      private:
        friend class RuncRuntime;

        Start(Instance &inst, sim::Simulation::DelayAwaiter syscall)
            : inst_(&inst), syscall_(syscall),
              ok_(inst.state == SandboxState::Created)
        {}

        Instance *inst_;
        sim::Simulation::DelayAwaiter syscall_;
        bool ok_;
    };

    /** Awaiter of destroy(Instance &). */
    class Teardown
    {
      public:
        bool await_ready() const noexcept { return container_ == nullptr; }

        [[nodiscard]] bool
        await_suspend(std::coroutine_handle<> h) const
        {
            return delete_.await_suspend(h);
        }

        void
        await_resume() const
        {
            runc_->finishDestroy(*inst_, container_);
        }

      private:
        friend class RuncRuntime;

        Teardown(RuncRuntime &runc, Instance &inst,
                 os::Container *container,
                 sim::Simulation::DelayAwaiter del)
            : runc_(&runc), inst_(&inst), container_(container),
              delete_(del)
        {}

        RuncRuntime *runc_;
        Instance *inst_;
        os::Container *container_;
        sim::Simulation::DelayAwaiter delete_;
    };

    /** @name The lifecycle by reference
     * What a cold start and an eviction run (DESIGN.md §4b); the OCI
     * calls above are thin wrappers over it. start() and destroy() do
     * their work at call time, so co_await their awaiters at once. */
    ///@{

    /**
     * Add the row of a new instance of @p image named @p id, in state
     * Creating; a destroyed instance's row is reused.
     * @return null when the id is taken.
     */
    Instance *addInstance(std::string_view id, const FunctionImage &image);

    /**
     * Boot @p inst, a row from addInstance(), by cfork or the cold
     * path, in one frame. It ends Created; on failure its row and
     * everything the boot took are released at once.
     */
    sim::Task<bool> create(Instance &inst, obs::SpanContext ctx);

    /** One syscall, then Running; yields false at once unless @p inst
     * is Created. */
    Start start(Instance &inst);

    /** The process exits now; the container delete is the one delay;
     * the row goes as the caller resumes. */
    Teardown destroy(Instance &inst);
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
     * pointers; LocalOs::crashReset() reaps the processes, so only the
     * pointers are dropped here. Every container row is retired.
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

    using Rows =
        std::unordered_map<std::string_view, std::unique_ptr<Instance>>;

    sim::Task<bool> createCold(Instance &inst, obs::SpanContext ctx);

    sim::Task<bool> createCfork(Instance &inst, obs::SpanContext ctx);

    /** cfork step 3: drop template-only state, map the private heap. */
    bool mapChildHeap(Instance &inst);

    /** A failed boot: release what @p inst took, spending no sim time,
     * and drop its row. @return false. */
    bool abandon(Instance &inst);

    void finishDestroy(Instance &inst, os::Container *container);

    /** Drop the row of @p inst. A dead instance's row is freed, never
     * reused: were a stale pointer to it still held (fault paths keep
     * dead rows for in-flight invokes), it must not alias a new
     * instance. */
    void eraseInstance(Instance &inst);

    os::LocalOs &os_;
    StartupPath path_ = StartupPath::CforkCpusetOpt;
    std::map<Language, TemplateState> templates_;
    std::deque<os::Container *> pool_;
    /** Live and dead instances by id. Each key views its own
     * Instance::id, which lives as long as the row. Only the fault
     * paths iterate it, and they schedule nothing, so the hash order
     * never reaches the event queue. */
    Rows instances_;
    /** Rows of destroyed instances, node and record. */
    sim::Spares<Rows::node_type> spareRows_;
    /** Scratch for region labels. */
    std::string label_;
    std::uint64_t nextId_ = 0;
};

static_assert(std::is_trivially_copyable_v<RuncRuntime::Start> &&
                  std::is_trivially_copyable_v<RuncRuntime::Teardown>,
              "lifecycle awaiters are returned by value (task.hh rule 3)");

} // namespace molecule::sandbox

#endif // MOLECULE_SANDBOX_RUNC_HH
