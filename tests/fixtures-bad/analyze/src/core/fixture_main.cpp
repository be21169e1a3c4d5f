namespace demo {

int poke_everything() {
  (void)sizeof(&sum_counts);
  (void)sizeof(&run_flow);
  (void)sizeof(&report_progress);
  (void)sizeof(&export_totals);
  (void)drain(std::vector<long>{});
  lock_ab();
  lock_ba();
  return forty_two() + quiet_level() + roll_dice(0.5);
}

}  // namespace demo

int main() { return demo::poke_everything(); }
