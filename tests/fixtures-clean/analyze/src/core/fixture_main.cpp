namespace demo {

int run_all(Pool& pool) {
  std::vector<int> data(4, 0);
  fill_counts(pool, data, 7);
  update_both(pool, data);
  consume(data);
  std::unordered_map<int, long> table;
  export_totals(table);
  first_then_second();
  also_first_then_second();
  return reseed() + identity(9) + scaled_twice(1) + held_value(3);
}

}  // namespace demo

int main() {
  demo::Pool pool;
  return demo::run_all(pool);
}
