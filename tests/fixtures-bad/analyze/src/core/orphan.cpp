namespace demo {

int orphaned_scale(int value) {
  return value * 3;
}

class Tally {
 public:
  int orphaned_total() const { return total_; }

 private:
  int total_ = 0;
};

}  // namespace demo
