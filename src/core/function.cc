#include "core/function.hh"

#include "sim/logging.hh"

namespace molecule::core {

void
FunctionRegistry::add(FunctionDef def)
{
    MOLECULE_ASSERT(!def.name.empty(), "function needs a name");
    const auto [it, fresh] =
        byName_.try_emplace(def.name, FnId(defs_.size()));
    def.id = it->second;
    if (!fresh) {
        defs_[def.id] = std::move(def);
        ++revisions_[it->second];
        return;
    }
    defs_.push_back(std::move(def));
    revisions_.push_back(1);
    names_.push_back(it->first);
    idsByName_.clear();
    for (const auto &[name, id] : byName_)
        idsByName_.push_back(id);
}

const FunctionDef &
FunctionRegistry::find(const std::string &name) const
{
    const FunctionDef *def = findPtr(name);
    if (def == nullptr)
        sim::fatal("unknown function '%s'", name.c_str());
    return *def;
}

const FunctionDef *
FunctionRegistry::findPtr(std::string_view name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : &defs_[it->second];
}

bool
FunctionRegistry::has(const std::string &name) const
{
    return byName_.count(name) != 0;
}

std::vector<const sandbox::FunctionImage *>
FunctionRegistry::imagesForTemplates() const
{
    std::vector<const sandbox::FunctionImage *> out;
    for (FnId id : idsByName_)
        if (defs_[id].cpuWork)
            out.push_back(&defs_[id].cpuWork->image);
    return out;
}

} // namespace molecule::core
