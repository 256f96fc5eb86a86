#include "mem/address_space.h"

#include <cstring>
#include <stdexcept>

namespace mem {

AddressSpace::AddressSpace(std::string name, HostPhysMap* phys)
    : name_(std::move(name)), phys_(phys) {}

AddressSpace::AddressSpace(std::string name, AddressSpace* lower)
    : name_(std::move(name)), lower_(lower) {}

HostPhysMap* AddressSpace::phys() const {
  const AddressSpace* s = this;
  while (s->lower_ != nullptr) s = s->lower_;
  return s->phys_;
}

void AddressSpace::map(Addr va, Addr lower_addr, Addr len) {
  if ((va & kPageMask) != 0 || (lower_addr & kPageMask) != 0 ||
      (len & kPageMask) != 0 || len == 0) {
    throw std::invalid_argument(name_ + ": map: unaligned arguments");
  }
  const Addr pages = len / kPageSize;
  for (Addr i = 0; i < pages; ++i) {
    const Addr vp = page_number(va) + i;
    if (table_.count(vp) != 0) {
      throw std::logic_error(name_ + ": map: page already mapped");
    }
  }
  table_.reserve(table_.size() + pages);
  for (Addr i = 0; i < pages; ++i) {
    table_[page_number(va) + i] = Entry{page_number(lower_addr) + i, 0};
  }
}

void AddressSpace::unmap(Addr va, Addr len) {
  if ((va & kPageMask) != 0 || (len & kPageMask) != 0) {
    throw std::invalid_argument(name_ + ": unmap: unaligned arguments");
  }
  const Addr pages = len / kPageSize;
  for (Addr i = 0; i < pages; ++i) {
    auto it = table_.find(page_number(va) + i);
    if (it == table_.end()) {
      throw std::out_of_range(name_ + ": unmap: page not mapped");
    }
    if (it->second.pin_count != 0) {
      throw std::logic_error(name_ + ": unmap: page is pinned");
    }
  }
  for (Addr i = 0; i < pages; ++i) {
    table_.erase(page_number(va) + i);
  }
}

void AddressSpace::force_unmap(Addr va, Addr len) {
  if ((va & kPageMask) != 0 || (len & kPageMask) != 0) {
    throw std::invalid_argument(name_ + ": force_unmap: unaligned arguments");
  }
  const Addr pages = len / kPageSize;
  for (Addr i = 0; i < pages; ++i) {
    table_.erase(page_number(va) + i);
  }
}

const AddressSpace::Entry* AddressSpace::find(Addr va) const {
  auto it = table_.find(page_number(va));
  return it == table_.end() ? nullptr : &it->second;
}

bool AddressSpace::is_mapped(Addr va) const { return find(va) != nullptr; }

std::optional<Addr> AddressSpace::translate(Addr va) const {
  const Entry* e = find(va);
  if (e == nullptr) return std::nullopt;
  return e->lower_page * kPageSize + (va & kPageMask);
}

Addr AddressSpace::translate_or_throw(Addr va) const {
  auto r = translate(va);
  if (!r) {
    throw std::out_of_range(name_ + ": translation fault at va=" +
                            std::to_string(va));
  }
  return *r;
}

Addr AddressSpace::resolve_hpa(Addr va) const {
  Addr a = translate_or_throw(va);
  for (const AddressSpace* s = lower_; s != nullptr; s = s->lower_) {
    a = s->translate_or_throw(a);
  }
  return a;
}

std::vector<Segment> AddressSpace::translate_range(Addr va, Addr len) const {
  std::vector<Segment> out;
  Addr pos = va;
  Addr remaining = len;
  while (remaining > 0) {
    const Addr lower_addr = translate_or_throw(pos);
    const Addr in_page = kPageSize - (pos & kPageMask);
    const Addr chunk = remaining < in_page ? remaining : in_page;
    if (!out.empty() && out.back().addr + out.back().len == lower_addr) {
      out.back().len += chunk;
    } else {
      out.push_back(Segment{lower_addr, chunk});
    }
    pos += chunk;
    remaining -= chunk;
  }
  return out;
}

std::vector<Segment> AddressSpace::resolve_hpa_range(Addr va, Addr len) const {
  std::vector<Segment> out;
  Addr pos = va;
  Addr remaining = len;
  while (remaining > 0) {
    const Addr hpa = resolve_hpa(pos);
    const Addr in_page = kPageSize - (pos & kPageMask);
    const Addr chunk = remaining < in_page ? remaining : in_page;
    if (!out.empty() && out.back().addr + out.back().len == hpa) {
      out.back().len += chunk;
    } else {
      out.push_back(Segment{hpa, chunk});
    }
    pos += chunk;
    remaining -= chunk;
  }
  return out;
}

void AddressSpace::pin(Addr va, Addr len) {
  const Addr first = page_number(va);
  const Addr last = page_number(va + (len == 0 ? 0 : len - 1));
  for (Addr p = first; p <= last; ++p) {
    auto it = table_.find(p);
    if (it == table_.end()) {
      throw std::out_of_range(name_ + ": pin: page not mapped");
    }
    ++it->second.pin_count;
  }
}

void AddressSpace::unpin(Addr va, Addr len) {
  const Addr first = page_number(va);
  const Addr last = page_number(va + (len == 0 ? 0 : len - 1));
  for (Addr p = first; p <= last; ++p) {
    auto it = table_.find(p);
    if (it == table_.end() || it->second.pin_count == 0) {
      throw std::logic_error(name_ + ": unpin: page not pinned");
    }
    --it->second.pin_count;
  }
}

bool AddressSpace::is_pinned(Addr va) const {
  const Entry* e = find(va);
  return e != nullptr && e->pin_count > 0;
}

void AddressSpace::pin_chain(Addr va, Addr len) {
  pin(va, len);
  if (lower_ != nullptr) {
    const Addr lower_addr = translate_or_throw(page_floor(va));
    // Pages map 1:1 in this model, so the lower range has the same extent.
    lower_->pin_chain(lower_addr + (va & kPageMask), len);
  }
}

void AddressSpace::unpin_chain(Addr va, Addr len) {
  unpin(va, len);
  if (lower_ != nullptr) {
    const Addr lower_addr = translate_or_throw(page_floor(va));
    lower_->unpin_chain(lower_addr + (va & kPageMask), len);
  }
}

void AddressSpace::read(Addr va, std::span<std::uint8_t> out) const {
  HostPhysMap* pm = phys();
  Addr pos = va;
  std::size_t done = 0;
  while (done < out.size()) {
    const Addr hpa = resolve_hpa(pos);
    const Addr in_page = kPageSize - (pos & kPageMask);
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - done, in_page);
    pm->read(hpa, out.subspan(done, chunk));
    pos += chunk;
    done += chunk;
  }
}

void AddressSpace::write(Addr va, std::span<const std::uint8_t> in) {
  HostPhysMap* pm = phys();
  Addr pos = va;
  std::size_t done = 0;
  while (done < in.size()) {
    const Addr hpa = resolve_hpa(pos);
    const Addr in_page = kPageSize - (pos & kPageMask);
    const std::size_t chunk = std::min<std::size_t>(in.size() - done, in_page);
    pm->write(hpa, in.subspan(done, chunk));
    pos += chunk;
    done += chunk;
  }
}

std::uint64_t AddressSpace::read_u64(Addr va) const {
  std::uint8_t buf[8];
  read(va, buf);
  std::uint64_t v;
  std::memcpy(&v, buf, 8);
  return v;
}

void AddressSpace::write_u64(Addr va, std::uint64_t value) {
  std::uint8_t buf[8];
  std::memcpy(buf, &value, 8);
  write(va, buf);
}

}  // namespace mem
