#include "fault/fault.hpp"

#include <charconv>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/mutex.hpp"

namespace cgc::fault {

namespace {

/// One armed injection site.
struct Site {
  std::string name;
  double probability = 0.0;  ///< p= trigger; 0 disables
  std::uint64_t every = 0;   ///< every= trigger; 0 disables
  std::uint64_t once = 0;    ///< once= trigger key
  bool has_once = false;
  std::uint64_t seed = 0;
  ErrorKind kind = ErrorKind::kData;
  bool kind_set = false;
};

struct Config {
  std::string spec;
  std::vector<Site> sites;
};

util::Mutex g_mutex;
std::unique_ptr<const Config> g_config CGC_GUARDED_BY(g_mutex);

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw util::FatalError("malformed CGC_FAULT_SPEC (" + why + "): " + spec);
}

double parse_probability(std::string_view v, const std::string& spec) {
  double p = 0.0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), p);
  if (ec != std::errc() || ptr != v.data() + v.size() || p < 0.0 || p > 1.0) {
    bad_spec(spec, "p= wants a probability in [0,1], got '" +
                       std::string(v) + "'");
  }
  return p;
}

std::uint64_t parse_u64(std::string_view v, const char* what,
                        const std::string& spec) {
  std::uint64_t n = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  if (ec != std::errc() || ptr != v.data() + v.size()) {
    bad_spec(spec, std::string(what) + " wants an integer, got '" +
                       std::string(v) + "'");
  }
  return n;
}

Site parse_entry(std::string_view entry, const std::string& spec) {
  const std::size_t colon = entry.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    bad_spec(spec, "entry needs 'site:trigger', got '" + std::string(entry) +
                       "'");
  }
  Site site;
  site.name = std::string(entry.substr(0, colon));
  std::string_view items = entry.substr(colon + 1);
  bool has_trigger = false;
  while (!items.empty()) {
    const std::size_t comma = items.find(',');
    const std::string_view item = items.substr(0, comma);
    items = comma == std::string_view::npos ? std::string_view()
                                            : items.substr(comma + 1);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      bad_spec(spec, "item needs 'key=value', got '" + std::string(item) +
                         "'");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (key == "p") {
      site.probability = parse_probability(value, spec);
      has_trigger = true;
    } else if (key == "every") {
      site.every = parse_u64(value, "every=", spec);
      if (site.every == 0) {
        bad_spec(spec, "every= wants a positive integer");
      }
      has_trigger = true;
    } else if (key == "once") {
      site.once = parse_u64(value, "once=", spec);
      site.has_once = true;
      has_trigger = true;
    } else if (key == "seed") {
      site.seed = parse_u64(value, "seed=", spec);
    } else if (key == "kind") {
      if (value == "transient") {
        site.kind = ErrorKind::kTransient;
      } else if (value == "data") {
        site.kind = ErrorKind::kData;
      } else if (value == "fatal") {
        site.kind = ErrorKind::kFatal;
      } else {
        bad_spec(spec, "kind= wants transient|data|fatal, got '" +
                           std::string(value) + "'");
      }
      site.kind_set = true;
    } else {
      bad_spec(spec, "unknown item '" + std::string(key) + "='");
    }
  }
  if (!has_trigger) {
    bad_spec(spec, "site '" + site.name +
                       "' has no trigger (p=, every=, or once=)");
  }
  return site;
}

std::unique_ptr<const Config> parse_spec(const std::string& spec) {
  auto config = std::make_unique<Config>();
  config->spec = spec;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    const std::string_view entry = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view()
                                          : rest.substr(semi + 1);
    if (entry.empty()) {
      continue;
    }
    config->sites.push_back(parse_entry(entry, spec));
  }
  return config;
}

const Site* find_site(const Config& config, std::string_view name) {
  for (const Site& s : config.sites) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

bool site_fires(const Site& site, std::uint64_t key) {
  if (site.has_once && key == site.once) {
    return true;
  }
  if (site.every != 0 && key % site.every == 0) {
    return true;
  }
  if (site.probability > 0.0) {
    // A pure hash of (seed, site, key), so the trigger is independent
    // of call order.
    const std::uint64_t h =
        util::splitmix64(site.seed ^ util::fnv1a(site.name) ^
                         util::splitmix64(key));
    // Top 53 bits -> uniform double in [0, 1).
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < site.probability;
  }
  return false;
}

/// Installs the environment spec exactly once, before the first armed()
/// observer can see g_armed == true.
const bool g_env_installed = [] {
  const char* env = std::getenv("CGC_FAULT_SPEC");
  if (env != nullptr && env[0] != '\0') {
    configure(env);
  }
  return true;
}();

}  // namespace

namespace detail {

std::atomic<bool> g_armed{false};

bool should_fail_slow(std::string_view site, std::uint64_t key) {
  util::MutexLock lock(g_mutex);
  if (g_config == nullptr) {
    return false;
  }
  const Site* s = find_site(*g_config, site);
  return s != nullptr && site_fires(*s, key);
}

}  // namespace detail

void maybe_throw(std::string_view site, std::uint64_t key,
                 ErrorKind fallback) {
  if (!inject(site, key)) {
    return;
  }
  ErrorKind kind = fallback;
  {
    util::MutexLock lock(g_mutex);
    const Site* s = g_config ? find_site(*g_config, site) : nullptr;
    if (s != nullptr && s->kind_set) {
      kind = s->kind;
    }
  }
  const std::string what = "injected fault at " + std::string(site) +
                           " (key " + std::to_string(key) + ")";
  switch (kind) {
    case ErrorKind::kTransient:
      throw util::TransientError(what);
    case ErrorKind::kData:
      throw util::DataError(what);
    case ErrorKind::kFatal:
      throw util::FatalError(what);
  }
}

void configure(const std::string& spec) {
  std::unique_ptr<const Config> config =
      spec.empty() ? nullptr : parse_spec(spec);
  const bool armed = config != nullptr;
  {
    // Every reader uses the config only while it holds the lock, so the
    // replaced config can be freed as soon as the swap is done.
    util::MutexLock lock(g_mutex);
    g_config.swap(config);
  }
  detail::g_armed.store(armed, std::memory_order_relaxed);
}

std::string active_spec() {
  util::MutexLock lock(g_mutex);
  return g_config == nullptr ? std::string() : g_config->spec;
}

}  // namespace cgc::fault
