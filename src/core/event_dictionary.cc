#include "core/event_dictionary.h"

namespace gsgrow {

EventId EventDictionary::Intern(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  EventId id = static_cast<EventId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

EventId EventDictionary::Lookup(std::string_view name) const {
  auto it = ids_.find(std::string(name));
  return it == ids_.end() ? kNoEvent : it->second;
}

std::string EventDictionary::Name(EventId id) const {
  if (id < names_.size()) return names_[id];
  // Appending to a named std::string, not `"e" + std::to_string(id)`: gcc
  // 12 at -O3 reports a false -Wrestrict overlap in that operator+ form.
  std::string name = "e";
  name += std::to_string(id);
  return name;
}

}  // namespace gsgrow
