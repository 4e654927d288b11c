// The OO7/STMBench7 object model (Figure 1 of the paper).
//
// Module -> tree of complex assemblies -> base assemblies -> composite parts
// (the shared design library) -> graphs of atomic parts wired by connection
// objects; one document per composite part, one manual per module.
//
// Mutability follows Appendix B.1: modules and connections are immutable;
// everything else can be updated by some operation. Immutable links (a
// part's owning composite part, an assembly's parent) are plain members;
// mutable state is held in TxFields / Tx collections so concurrency control
// is injected by the active strategy. Object graphs below a composite part
// are created privately and published atomically, so their shape (parts and
// connections) is immutable even though atomic part attributes are not.

#ifndef STMBENCH7_SRC_CORE_OBJECTS_H_
#define STMBENCH7_SRC_CORE_OBJECTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/text.h"
#include "src/containers/txvector.h"
#include "src/stm/field.h"

namespace sb7 {

class AtomicPart;
class BaseAssembly;
class ComplexAssembly;
class CompositePart;
class Module;

using Date = int64_t;

// Common base: every design object has an immutable id and a mutable build
// date. The benchmark's generic "read-only operation" on an object reads the
// date; the generic "update operation on a non-indexed attribute" nudges it
// by one without changing its parity-free ordering properties.
class DesignObject : public TmObject {
 public:
  DesignObject(int64_t id, Date build_date) : id_(id), build_date_(unit(), build_date) {}

  int64_t id() const { return id_; }
  Date build_date() const { return build_date_.Get(); }
  void set_build_date(Date date) { build_date_.Set(date); }

  // The canonical read-only operation (OO7's "null work" visit).
  Date ReadVisit() const { return build_date_.Get(); }

  // The canonical non-indexed update: toggles the date by +-1, keeping the
  // value inside the configured range (mirrors the Java benchmark's
  // updateBuildDate).
  void NudgeBuildDate() {
    const Date date = build_date_.Get();
    build_date_.Set((date % 2) == 0 ? date + 1 : date - 1);
  }

 private:
  const int64_t id_;
  TxField<Date> build_date_;
};

// Immutable connection between two atomic parts (Appendix B.1: connection
// objects are immutable).
class Connection {
 public:
  Connection(AtomicPart* from, AtomicPart* to, int32_t length)
      : from_(from), to_(to), length_(length) {}

  AtomicPart* from() const { return from_; }
  AtomicPart* to() const { return to_; }
  int32_t length() const { return length_; }

 private:
  AtomicPart* const from_;
  AtomicPart* const to_;
  const int32_t length_;
};

class AtomicPart : public DesignObject {
 public:
  AtomicPart(int64_t id, Date build_date, int64_t x, int64_t y)
      : DesignObject(id, build_date), x_(unit(), x), y_(unit(), y) {}

  int64_t x() const { return x_.Get(); }
  int64_t y() const { return y_.Get(); }

  // The canonical non-indexed atomic part update (T2*, ST6, ST10, OP9/10).
  void SwapXY() {
    const int64_t x = x_.Get();
    const int64_t y = y_.Get();
    x_.Set(y);
    y_.Set(x);
  }

  CompositePart* part_of() const { return part_of_; }
  // This part's position in part_of()->parts(); set by CompositePart::AddPart
  // and immutable after it, so a graph walk can mark visits by index.
  uint32_t index_in_part() const { return index_in_part_; }

  // Graph wiring; called only during private construction of a composite
  // part's graph, before publication. The owning composite part becomes the
  // lock-coverage root for this part's fields (fine-grained strategy).
  void set_part_of(CompositePart* part);
  void AddOutgoing(Connection* connection) { to_.push_back(connection); }
  void AddIncoming(Connection* connection) { from_.push_back(connection); }

  const std::vector<Connection*>& outgoing() const { return to_; }
  const std::vector<Connection*>& incoming() const { return from_; }

 private:
  friend class CompositePart;

  TxField<int64_t> x_;
  TxField<int64_t> y_;
  CompositePart* part_of_ = nullptr;
  uint32_t index_in_part_ = 0;
  std::vector<Connection*> to_;
  std::vector<Connection*> from_;
};

class Document : public TmObject {
 public:
  Document(int64_t id, std::string title, std::string text)
      : id_(id), title_(std::move(title)), text_(unit(), std::move(text)) {}

  int64_t id() const { return id_; }
  const std::string& title() const { return title_; }

  CompositePart* part() const { return part_; }
  void set_part(CompositePart* part);

  // T4 / ST2: occurrences of `c` in the body.
  int64_t CountChar(char c) const { return sb7::CountChar(text_.Get(), c); }

  // T5 / ST7: swaps "I am" <-> "This is"; returns the replacement count.
  int64_t TogglePhrase();

  const std::string& text() const { return text_.Get(); }
  void set_text(std::string text) { text_.Set(std::move(text)); }

 private:
  const int64_t id_;
  const std::string title_;
  TxText text_;
  CompositePart* part_ = nullptr;
};

class Manual : public TmObject {
 public:
  Manual(int64_t id, std::string title, std::string text)
      : id_(id), title_(std::move(title)), text_(unit(), std::move(text)) {}

  int64_t id() const { return id_; }
  const std::string& title() const { return title_; }
  const std::string& text() const { return text_.Get(); }

  // OP4: occurrences of 'I'.
  int64_t CountChar(char c) const { return sb7::CountChar(text_.Get(), c); }
  // OP5: 1 if the first and last characters match, else 0.
  int64_t FirstEqualsLast() const {
    const std::string& body = text_.Get();
    return (!body.empty() && body.front() == body.back()) ? 1 : 0;
  }
  // OP11: swaps 'I' <-> 'i' throughout; returns the number of changes.
  int64_t ToggleCase();

  Module* module() const { return module_; }
  void set_module(Module* module) { module_ = module; }

 private:
  const int64_t id_;
  const std::string title_;
  TxText text_;
  Module* module_ = nullptr;
};

class CompositePart : public DesignObject {
 public:
  CompositePart(int64_t id, Date build_date, Document* documentation)
      : DesignObject(id, build_date), documentation_(documentation) {
    used_in_.SetCover(unit());
  }

  Document* documentation() const { return documentation_; }

  AtomicPart* root_part() const { return root_part_; }
  void set_root_part(AtomicPart* part) { root_part_ = part; }

  // The graph's part set: immutable after private construction.
  void AddPart(AtomicPart* part) {
    part->index_in_part_ = static_cast<uint32_t>(parts_.size());
    parts_.push_back(part);
  }
  const std::vector<AtomicPart*>& parts() const { return parts_; }

  // Mutable many-to-many link to base assemblies (SM3/SM4/SM2/SM6).
  TxBag<BaseAssembly*>& used_in() { return used_in_; }
  const TxBag<BaseAssembly*>& used_in() const { return used_in_; }

 private:
  Document* const documentation_;
  AtomicPart* root_part_ = nullptr;
  std::vector<AtomicPart*> parts_;
  TxBag<BaseAssembly*> used_in_;
};

class Assembly : public DesignObject {
 public:
  Assembly(int64_t id, Date build_date, int level, ComplexAssembly* super, Module* module)
      : DesignObject(id, build_date), level_(level), super_(super), module_(module) {}

  // Base assemblies sit at level 1; the root complex assembly at the top.
  int level() const { return level_; }
  bool is_base() const { return level_ == 1; }
  ComplexAssembly* super_assembly() const { return super_; }
  Module* module() const { return module_; }

 private:
  const int level_;
  ComplexAssembly* const super_;
  Module* const module_;
};

class BaseAssembly : public Assembly {
 public:
  BaseAssembly(int64_t id, Date build_date, ComplexAssembly* super, Module* module)
      : Assembly(id, build_date, /*level=*/1, super, module) {
    components_.SetCover(unit());
  }

  TxBag<CompositePart*>& components() { return components_; }
  const TxBag<CompositePart*>& components() const { return components_; }

 private:
  TxBag<CompositePart*> components_;
};

class ComplexAssembly : public Assembly {
 public:
  ComplexAssembly(int64_t id, Date build_date, int level, ComplexAssembly* super, Module* module)
      : Assembly(id, build_date, level, super, module) {
    sub_assemblies_.SetCover(unit());
  }

  TxSet<Assembly*>& sub_assemblies() { return sub_assemblies_; }
  const TxSet<Assembly*>& sub_assemblies() const { return sub_assemblies_; }

 private:
  TxSet<Assembly*> sub_assemblies_;
};

// Immutable per Appendix B.1.
class Module : public TmObject {
 public:
  Module(int64_t id, Manual* manual) : id_(id), manual_(manual) {}

  int64_t id() const { return id_; }
  Manual* manual() const { return manual_; }

  ComplexAssembly* design_root() const { return design_root_; }
  void set_design_root(ComplexAssembly* root) { design_root_ = root; }

 private:
  const int64_t id_;
  Manual* const manual_;
  ComplexAssembly* design_root_ = nullptr;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_CORE_OBJECTS_H_
