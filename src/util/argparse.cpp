#include "util/argparse.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace hmr {

void ArgParser::add_flag(std::string name, std::string help, bool* value) {
  HMR_CHECK(value != nullptr && find(name) == nullptr);
  flags_.push_back({std::move(name), std::move(help), Kind::Bool, value});
}

void ArgParser::add_flag(std::string name, std::string help,
                         std::int64_t* value) {
  HMR_CHECK(value != nullptr && find(name) == nullptr);
  flags_.push_back({std::move(name), std::move(help), Kind::Int, value});
}

void ArgParser::add_flag(std::string name, std::string help,
                         std::uint64_t* value) {
  HMR_CHECK(value != nullptr && find(name) == nullptr);
  flags_.push_back({std::move(name), std::move(help), Kind::Uint, value});
}

void ArgParser::add_flag(std::string name, std::string help, double* value) {
  HMR_CHECK(value != nullptr && find(name) == nullptr);
  flags_.push_back({std::move(name), std::move(help), Kind::Double, value});
}

void ArgParser::add_flag(std::string name, std::string help,
                         std::string* value) {
  HMR_CHECK(value != nullptr && find(name) == nullptr);
  flags_.push_back({std::move(name), std::move(help), Kind::String, value});
}

const ArgParser::Flag* ArgParser::find(const std::string& name) const {
  for (const auto& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

bool ArgParser::assign(const Flag& f, const std::string& value) const {
  switch (f.kind) {
    case Kind::Bool: {
      if (value == "true" || value == "1") {
        *static_cast<bool*>(f.target) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(f.target) = false;
      } else {
        return false;
      }
      return true;
    }
    case Kind::Int:
      return parse_i64(value, static_cast<std::int64_t*>(f.target));
    case Kind::Uint:
      return parse_u64(value, static_cast<std::uint64_t*>(f.target));
    case Kind::Double:
      return parse_f64(value, static_cast<double*>(f.target));
    case Kind::String:
      *static_cast<std::string*>(f.target) = value;
      return true;
  }
  return false;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected positional argument '%s'\n",
                   program_.c_str(), arg.c_str());
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    const Flag* f = find(name);
    if (!f) {
      std::fprintf(stderr, "%s: unknown flag '--%s'\n", program_.c_str(),
                   name.c_str());
      return false;
    }
    if (!have_value) {
      if (f->kind == Kind::Bool) {
        value = "true"; // bare boolean flag
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "%s: flag '--%s' needs a value\n",
                     program_.c_str(), name.c_str());
        return false;
      }
    }
    if (!assign(*f, value)) {
      std::fprintf(stderr, "%s: bad value '%s' for flag '--%s'\n",
                   program_.c_str(), value.c_str(), name.c_str());
      return false;
    }
  }
  return true;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& f : flags_) {
    os << "  --" << f.name;
    switch (f.kind) {
      case Kind::Bool: break;
      case Kind::Int: os << " <int>"; break;
      case Kind::Uint: os << " <uint>"; break;
      case Kind::Double: os << " <float>"; break;
      case Kind::String: os << " <string>"; break;
    }
    os << "\n      " << f.help << "\n";
  }
  return os.str();
}

} // namespace hmr
