namespace demo {

int helper(int v) {
  return v + 1;
}

// A function template: its `class` parameters declare no class scope.
template <class Value, class Fn>
Value apply_twice(Value value, Fn fn) {
  return fn(fn(value));
}

// A brace member initializer comes before the constructor's body.
class Holder {
 public:
  explicit Holder(int v) : value_{v} { helper(v); }
  [[nodiscard]] int value() const { return value_; }

 private:
  int value_;
};

int held_value(int v) {
  const Holder holder{v};
  return apply_twice(holder.value(), helper);
}

}  // namespace demo
